/**
 * @file
 * Property/fuzz tests: random operation sequences against the FTL
 * with full invariant checking and a shadow-model content oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "sim/rng.h"

namespace checkin {
namespace {

NandConfig
fuzzNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.blocksPerPlane = 12;
    c.pagesPerBlock = 12;
    return c;
}

SectorData
sectorFor(std::uint64_t tag)
{
    SectorData d;
    for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
        d.chunks[c] = mix64(tag * 4 + c + 1);
    return d;
}

/**
 * Reference model: logical sector -> expected SectorData. Remaps are
 * modeled as content copies (both LPNs then read the same content).
 */
class FtlFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    FtlFuzz() : nand_(fuzzNand())
    {
        FtlConfig cfg;
        cfg.mappingUnitBytes = 512;
        cfg.exportedRatio = 0.7;
        cfg.gcLowWaterBlocks = 3;
        cfg.gcHighWaterBlocks = 5;
        ftl_ = std::make_unique<Ftl>(nand_, cfg);
        span_ = ftl_->logicalUnits() / 2;
    }

    void
    checkAll()
    {
        ftl_->checkInvariants();
        for (const auto &[lpn, want] : model_) {
            SectorData got;
            ftl_->peekSectors(lpn, 1, &got);
            ASSERT_EQ(got, want) << "lpn " << lpn;
        }
    }

    NandFlash nand_;
    std::unique_ptr<Ftl> ftl_;
    std::map<Lpn, SectorData> model_;
    std::uint64_t span_ = 0;
    std::uint64_t tag_ = 0;
};

TEST_P(FtlFuzz, RandomOpsKeepInvariantsAndContent)
{
    Rng rng(GetParam() * 7919 + 13);
    for (int step = 0; step < 4000; ++step) {
        const Lpn a = rng.nextBounded(span_);
        const Lpn b = rng.nextBounded(span_);
        switch (rng.nextBounded(100)) {
          case 0 ... 59: { // write
            const SectorData d = sectorFor(++tag_);
            ftl_->writeSectors(a, 1, &d, IoCause::Query, 0);
            model_[a] = d;
            break;
          }
          case 60 ... 74: { // remap a -> b (CoW share)
            if (!ftl_->isMapped(a) || a == b)
                break;
            ftl_->remapUnit(a, b, 0);
            model_[b] = model_[a];
            break;
          }
          case 75 ... 84: { // copy a -> b (physical)
            if (a == b)
                break;
            ftl_->copySectors(a, b, 1, IoCause::Checkpoint, 0);
            model_[b] = ftl_->isMapped(a) ? model_[a] : SectorData{};
            if (!ftl_->isMapped(a))
                model_.erase(b);
            break;
          }
          case 85 ... 94: { // trim
            ftl_->trimSectors(a, 1);
            model_.erase(a);
            break;
          }
          default: { // background GC kick
            ftl_->runBackgroundGc(0);
            break;
          }
        }
        if (step % 500 == 499)
            checkAll();
    }
    checkAll();
    // Device must still be operable afterwards.
    const SectorData d = sectorFor(++tag_);
    ftl_->writeSectors(0, 1, &d, IoCause::Query, 0);
    model_[0] = d;
    checkAll();
}

// Trims over large, mostly unmapped ranges skip through the mapped-LPN
// bitmap; per LPN they must do exactly what a unit-by-unit trim does:
// unmap every mapped unit in range (counting each once) and nothing
// outside it.
TEST_P(FtlFuzz, SparseLargeTrimsMatchPerLpnSemantics)
{
    Rng rng(GetParam() * 104729 + 7);
    const std::uint64_t units = ftl_->logicalUnits();
    for (int step = 0; step < 3000; ++step) {
        const Lpn a = rng.nextBounded(units);
        switch (rng.nextBounded(10)) {
          case 0 ... 4: { // sparse write anywhere in the device
            const SectorData d = sectorFor(++tag_);
            ftl_->writeSectors(a, 1, &d, IoCause::Query, 0);
            model_[a] = d;
            break;
          }
          case 5: { // remap onto a far LPN
            const Lpn b = rng.nextBounded(units);
            if (!ftl_->isMapped(a) || a == b)
                break;
            ftl_->remapUnit(a, b, 0);
            model_[b] = model_[a];
            break;
          }
          case 6 ... 8: { // trim up to a few hundred units
            const std::uint64_t len =
                1 + rng.nextBounded(std::min<std::uint64_t>(
                        units - a, 1 + rng.nextBounded(600)));
            const auto lo = model_.lower_bound(a);
            const auto hi = model_.lower_bound(a + len);
            const auto mapped = std::uint64_t(std::distance(lo, hi));
            const std::uint64_t trimmed0 =
                ftl_->stats().get("ftl.trimmedUnits");
            ftl_->trimSectors(a, len);
            model_.erase(lo, hi);
            ASSERT_EQ(ftl_->stats().get("ftl.trimmedUnits") - trimmed0,
                      mapped)
                << "trim [" << a << ", " << a + len << ")";
            for (Lpn u = a; u < a + len; ++u)
                ASSERT_FALSE(ftl_->isMapped(u)) << "lpn " << u;
            break;
          }
          default: {
            ftl_->runBackgroundGc(0);
            break;
          }
        }
        if (step % 250 == 249)
            checkAll();
    }
    checkAll();
    for (Lpn u = 0; u < units; ++u)
        ASSERT_EQ(ftl_->isMapped(u), model_.count(u) == 1) << "lpn " << u;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlFuzz,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(FtlInvariants, CleanAfterTypicalSequences)
{
    NandFlash nand(fuzzNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    ftl.checkInvariants(); // empty device

    SectorData d = sectorFor(1);
    ftl.writeSectors(0, 1, &d, IoCause::Journal, 0);
    ftl.checkInvariants();
    ftl.remapUnit(0, 9, 0);
    ftl.checkInvariants();
    ftl.trimSectors(0, 1);
    ftl.checkInvariants();
    ftl.trimSectors(9, 1);
    ftl.checkInvariants();
}

} // namespace
} // namespace checkin
