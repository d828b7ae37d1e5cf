/**
 * @file
 * Tests for ZeroedArray, the mmap-backed array that holds the
 * device's geometry-sized state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "sim/types.h"
#include "sim/zeroed_array.h"

namespace checkin {
namespace {

struct Pair
{
    std::uint64_t a;
    std::uint32_t b;
};

TEST(ZeroedArray, StartsAllZero)
{
    ZeroedArray<Pair> arr(100'000);
    ASSERT_EQ(arr.size(), 100'000u);
    for (std::size_t i = 0; i < arr.size(); ++i) {
        ASSERT_EQ(arr[i].a, 0u) << i;
        ASSERT_EQ(arr[i].b, 0u) << i;
    }
}

TEST(ZeroedArray, StoresAndReadsBack)
{
    ZeroedArray<std::uint64_t> arr(5000);
    for (std::size_t i = 0; i < arr.size(); i += 7)
        arr[i] = i * 3 + 1;
    for (std::size_t i = 0; i < arr.size(); ++i)
        EXPECT_EQ(arr[i], i % 7 == 0 ? i * 3 + 1 : 0u) << i;
}

TEST(ZeroedArray, ZeroResetsEveryElement)
{
    ZeroedArray<std::uint64_t> arr(3 * 4096 + 5);
    for (std::size_t i = 0; i < arr.size(); ++i)
        arr[i] = kInvalidAddr;
    arr.zero();
    ASSERT_EQ(arr.size(), 3u * 4096 + 5);
    for (std::size_t i = 0; i < arr.size(); ++i)
        ASSERT_EQ(arr[i], 0u) << i;
    arr[arr.size() - 1] = 9; // still writable afterwards
    EXPECT_EQ(arr[arr.size() - 1], 9u);
}

TEST(ZeroedArray, MoveTransfersOwnership)
{
    ZeroedArray<std::uint32_t> a(10);
    a[3] = 42;
    ZeroedArray<std::uint32_t> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    ASSERT_EQ(b.size(), 10u);
    EXPECT_EQ(b[3], 42u);
    ZeroedArray<std::uint32_t> c(4);
    c = std::move(b);
    EXPECT_EQ(b.size(), 0u);
    ASSERT_EQ(c.size(), 10u);
    EXPECT_EQ(c[3], 42u);
}

TEST(ZeroedArray, EmptyArrayIsValid)
{
    ZeroedArray<std::uint8_t> none;
    EXPECT_EQ(none.size(), 0u);
    none.zero();
    ZeroedArray<std::uint8_t> sized_empty(0);
    EXPECT_EQ(sized_empty.size(), 0u);
}

TEST(ZeroedArrayDeathTest, OutOfBoundsIndexAsserts)
{
#ifdef NDEBUG
    GTEST_SKIP() << "bounds asserts compiled out";
#endif
    ZeroedArray<std::uint64_t> arr(8);
    EXPECT_DEATH(arr[8] = 1, "");
}

} // namespace
} // namespace checkin
