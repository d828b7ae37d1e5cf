/**
 * @file
 * Tests for the PRNG, the bit mixers, and the key distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "engine/record.h"
#include "sim/rng.h"
#include "sim/zipf.h"

namespace checkin {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ChildSeedIsDeterministicAndDrawIndependent)
{
    Rng a(123);
    const std::uint64_t before = a.childSeed(7);
    // Drawing from the parent must not move its child streams: the
    // derivation depends on the construction seed only.
    for (int i = 0; i < 1000; ++i)
        a.next();
    EXPECT_EQ(a.childSeed(7), before);
    EXPECT_EQ(Rng(123).childSeed(7), before);
    EXPECT_EQ(a.seed(), 123u);

    Rng c1 = a.child(7);
    Rng c2 = Rng(123).child(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c1.next(), c2.next());
}

TEST(Rng, ChildStreamsAreDistinctAndIndependent)
{
    Rng root(42);
    // Distinct stream ids must give distinct seeds (no collisions in
    // a realistic stream range)...
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < 4096; ++s)
        seeds.push_back(root.childSeed(s));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());

    // ...and the derived sequences must decorrelate: adjacent
    // streams, and a child against its parent, agree on almost no
    // draws and have balanced bit-agreement.
    Rng c0 = root.child(0);
    Rng c1 = root.child(1);
    Rng parent(42);
    int same_adjacent = 0;
    int same_parent = 0;
    std::int64_t bit_agree = 0;
    const int n = 10'000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t x = c0.next();
        const std::uint64_t y = c1.next();
        same_adjacent += x == y;
        same_parent += x == parent.next();
        bit_agree += 32 - std::popcount(x ^ y);
    }
    EXPECT_LT(same_adjacent, 3);
    EXPECT_LT(same_parent, 3);
    // Mean bit agreement is 0 for independent streams; bound the
    // drift well above the ~sqrt(64 * n) / 2 standard deviation.
    EXPECT_LT(std::abs(bit_agree), std::int64_t(64) * n / 100);
}

TEST(Rng, ChildSeedSeparatesSeedAndStream)
{
    // (seed a, stream b) and (seed b, stream a) must not collide:
    // the derivation is not a symmetric mix of the two inputs.
    EXPECT_NE(Rng(1).childSeed(2), Rng(2).childSeed(1));
    EXPECT_NE(Rng(0).childSeed(1), Rng(1).childSeed(0));
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10'000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedRoughlyUniform)
{
    Rng r(11);
    std::vector<int> hist(8, 0);
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++hist[r.nextBounded(8)];
    for (int c : hist) {
        EXPECT_GT(c, n / 8 - n / 80);
        EXPECT_LT(c, n / 8 + n / 80);
    }
}

/** unmix64 must invert mix64 over random inputs. */
class MixInverse : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MixInverse, RoundTrips)
{
    const std::uint64_t x = GetParam();
    EXPECT_EQ(unmix64(mix64(x)), x);
    EXPECT_EQ(mix64(unmix64(x)), x);
}

INSTANTIATE_TEST_SUITE_P(
    Values, MixInverse,
    ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                      0xffffffffffffffffULL, 0x8000000000000000ULL,
                      0x123456789abcdef0ULL, 977ULL, 1ULL << 33));

TEST(MixInverseSweep, RandomRoundTrips)
{
    Rng r(5);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t x = r.next();
        ASSERT_EQ(unmix64(mix64(x)), x);
    }
}

TEST(Uniform, CoversAllItems)
{
    Rng r(3);
    UniformDistribution d(10);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10'000; ++i)
        ++seen[d.next(r)];
    for (int c : seen)
        EXPECT_GT(c, 0);
}

TEST(Zipfian, RespectsRange)
{
    Rng r(3);
    ZipfianDistribution d(1000);
    for (int i = 0; i < 100'000; ++i)
        ASSERT_LT(d.next(r), 1000u);
}

TEST(Zipfian, ItemZeroIsHottest)
{
    Rng r(3);
    ZipfianDistribution d(1000);
    std::vector<int> hist(1000, 0);
    for (int i = 0; i < 200'000; ++i)
        ++hist[d.next(r)];
    EXPECT_GT(hist[0], hist[1]);
    EXPECT_GT(hist[1], hist[10]);
    EXPECT_GT(hist[10], hist[500]);
}

TEST(Zipfian, SkewMatchesTheory)
{
    // With theta=0.99 and n=1000, item 0 should carry roughly
    // 1/zeta(1000, 0.99) ~ 13 % of the mass.
    Rng r(17);
    ZipfianDistribution d(1000);
    int zero = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        zero += d.next(r) == 0;
    const double frac = double(zero) / n;
    EXPECT_GT(frac, 0.10);
    EXPECT_LT(frac, 0.17);
}

TEST(ScrambledZipfian, SpreadsHotKeys)
{
    Rng r(3);
    ScrambledZipfianDistribution d(1000);
    std::vector<int> hist(1000, 0);
    for (int i = 0; i < 100'000; ++i)
        ++hist[d.next(r)];
    // The hottest item should not be item 0 systematically; find the
    // max and check it is still zipf-hot.
    int max_c = 0;
    for (int c : hist)
        max_c = std::max(max_c, c);
    EXPECT_GT(max_c, 100'000 / 100);
}

/** FNV-1a over the first 10 000 draws from an Rng seeded 42. */
std::uint64_t
drawDigest(KeyDistribution &d)
{
    Rng r(42);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 10'000; ++i) {
        h ^= d.next(r);
        h *= 0x100000001b3ull;
    }
    return h;
}

// Pinned draw streams: every workload's key sequence comes from here,
// so a change that moves one draw moves every golden run. The digests
// were recorded before the 0.5^theta threshold was hoisted out of
// next().
TEST(Zipfian, DrawStreamIsPinned)
{
    ZipfianDistribution hot(1000, 0.99);
    EXPECT_EQ(drawDigest(hot), 0xedd92805be5bd839ull);
    ZipfianDistribution mild(100'000, 0.5);
    EXPECT_EQ(drawDigest(mild), 0x20382e7505420f49ull);
}

TEST(ScrambledZipfian, DrawStreamIsPinned)
{
    ScrambledZipfianDistribution hot(1000, 0.99);
    EXPECT_EQ(drawDigest(hot), 0xd619db91c682160aull);
    ScrambledZipfianDistribution mild(100'000, 0.5);
    EXPECT_EQ(drawDigest(mild), 0x67d9c0ff4ec3b9f4ull);
}

TEST(Latest, FavorsNewestItems)
{
    Rng r(3);
    LatestDistribution d(1000);
    std::uint64_t sum = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        sum += d.next(r);
    // Mean should be strongly above the uniform mean of ~500.
    EXPECT_GT(double(sum) / n, 800.0);
}

TEST(Distributions, UniformIsFlat)
{
    Rng r(23);
    UniformDistribution d(100);
    std::vector<int> hist(100, 0);
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++hist[d.next(r)];
    for (int c : hist) {
        EXPECT_GT(c, n / 100 * 7 / 10);
        EXPECT_LT(c, n / 100 * 13 / 10);
    }
}

} // namespace
} // namespace checkin
