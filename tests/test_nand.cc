/**
 * @file
 * Tests for the NAND flash functional + timing model.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "nand/nand_flash.h"

namespace checkin {
namespace {

NandConfig
tinyConfig()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.planesPerDie = 1;
    c.blocksPerPlane = 4;
    c.pagesPerBlock = 8;
    c.pageBytes = 4096;
    return c;
}

PageContent
contentWith(std::uint64_t token)
{
    PageContent c;
    c.slotTokens = {token};
    c.oob = {OobEntry{token, 1}};
    return c;
}

TEST(NandLayout, FlattenUnflattenRoundTrip)
{
    const NandConfig cfg = tinyConfig();
    NandLayout layout(cfg);
    for (Ppn p = 0; p < cfg.totalPages(); ++p) {
        const PhysAddr a = layout.unflatten(p);
        EXPECT_EQ(layout.flatten(a), p);
        EXPECT_LT(a.channel, cfg.channels);
        EXPECT_LT(a.die, cfg.diesPerChannel);
        EXPECT_LT(a.block, cfg.blocksPerPlane);
        EXPECT_LT(a.page, cfg.pagesPerBlock);
    }
}

TEST(NandLayout, DieAndChannelIndexConsistent)
{
    const NandConfig cfg = tinyConfig();
    NandLayout layout(cfg);
    for (Ppn p = 0; p < cfg.totalPages(); ++p) {
        const PhysAddr a = layout.unflatten(p);
        const std::uint32_t die = layout.dieIndexOf(p);
        EXPECT_EQ(die, a.channel * cfg.diesPerChannel + a.die);
        EXPECT_EQ(layout.channelIndexOf(p), a.channel);
    }
}

TEST(NandConfigTest, GeometryMath)
{
    const NandConfig cfg = tinyConfig();
    EXPECT_EQ(cfg.dieCount(), 4u);
    EXPECT_EQ(cfg.totalBlocks(), 16u);
    EXPECT_EQ(cfg.totalPages(), 128u);
    EXPECT_EQ(cfg.totalBytes(), 128u * 4096u);
}

TEST(NandFlash, ProgramThenReadRoundTrips)
{
    NandFlash nand(tinyConfig());
    PageContent c = contentWith(0xabc);
    nand.program(0, c, 0);
    EXPECT_TRUE(nand.isProgrammed(0));
    EXPECT_EQ(nand.peek(0).slotTokens[0], 0xabcu);
}

TEST(NandFlash, InOrderProgrammingEnforced)
{
    NandFlash nand(tinyConfig());
    PageContent c0 = contentWith(1);
    nand.program(0, c0, 0);
    // Page 2 before page 1 violates the in-order rule.
    PageContent c2 = contentWith(2);
    EXPECT_THROW(nand.program(2, c2, 0), std::logic_error);
    PageContent c1 = contentWith(2);
    nand.program(1, c1, 0);
    EXPECT_EQ(nand.nextProgramPage(0), 2u);
}

TEST(NandFlash, RewriteWithoutEraseRejected)
{
    NandFlash nand(tinyConfig());
    PageContent first = contentWith(1);
    nand.program(0, first, 0);
    PageContent second = contentWith(2);
    EXPECT_THROW(nand.program(0, second, 0), std::logic_error);
}

TEST(NandFlash, EraseResetsBlock)
{
    NandFlash nand(tinyConfig());
    const NandConfig cfg = tinyConfig();
    for (std::uint32_t p = 0; p < cfg.pagesPerBlock; ++p) {
        PageContent c = contentWith(p);
        nand.program(p, c, 0);
    }
    EXPECT_EQ(nand.nextProgramPage(0), cfg.pagesPerBlock);
    nand.eraseBlock(0, 0);
    EXPECT_EQ(nand.nextProgramPage(0), 0u);
    EXPECT_FALSE(nand.isProgrammed(0));
    EXPECT_EQ(nand.eraseCount(0), 1u);
    // Re-programming after erase works.
    PageContent again = contentWith(7);
    nand.program(0, again, 0);
    EXPECT_EQ(nand.peek(0).slotTokens[0], 7u);
}

TEST(NandFlash, TimingReadIsSenseThenTransfer)
{
    const NandConfig cfg = tinyConfig();
    NandFlash nand(cfg);
    PageContent c = contentWith(1);
    nand.program(0, c, 0);
    const Tick idle = nand.allIdleAt();
    const Tick done = nand.read(0, idle).tick;
    EXPECT_EQ(done, idle + cfg.readLatency + cfg.pageTransferTime());
}

TEST(NandFlash, TimingSameDieSerializes)
{
    const NandConfig cfg = tinyConfig();
    NandFlash nand(cfg);
    PageContent c0 = contentWith(1);
    nand.program(0, c0, 0);
    PageContent c1 = contentWith(2);
    nand.program(1, c1, 0);
    const Tick idle = nand.allIdleAt();
    const Tick r1 = nand.read(0, idle).tick;
    const Tick r2 = nand.read(1, idle).tick;
    // Same die: second read waits for the first sense to finish.
    EXPECT_GE(r2, r1);
    EXPECT_GE(r2, idle + 2 * cfg.readLatency);
}

TEST(NandFlash, TimingDifferentDiesOverlap)
{
    const NandConfig cfg = tinyConfig();
    NandFlash nand(cfg);
    // Block 0 is die 0; the last block lives on the last die.
    const Ppn other_die_page =
        (cfg.totalBlocks() - 1) * cfg.pagesPerBlock;
    PageContent c0 = contentWith(1);
    nand.program(0, c0, 0);
    PageContent c1 = contentWith(2);
    nand.program(other_die_page, c1, 0);
    const Tick idle = nand.allIdleAt();
    const Tick r1 = nand.read(0, idle).tick;
    const Tick r2 = nand.read(other_die_page, idle).tick;
    // Different die and channel: fully parallel.
    EXPECT_EQ(r1, r2);
}

TEST(NandFlash, StatsCount)
{
    NandFlash nand(tinyConfig());
    PageContent c = contentWith(1);
    nand.program(0, c, 0);
    nand.read(0, 0);
    nand.read(0, 0);
    const StatRegistry &s = nand.stats();
    EXPECT_EQ(s.get("nand.programs"), 1u);
    EXPECT_EQ(s.get("nand.reads"), 2u);
    EXPECT_EQ(s.get("nand.erases"), 0u);
}

TEST(NandFlash, EraseCountTracking)
{
    NandFlash nand(tinyConfig());
    for (int i = 0; i < 3; ++i)
        nand.eraseBlock(1, 0);
    nand.eraseBlock(2, 0);
    EXPECT_EQ(nand.eraseCount(1), 3u);
    EXPECT_EQ(nand.maxEraseCount(), 3u);
    EXPECT_EQ(nand.totalEraseCount(), 4u);
}

TEST(NandFlash, OobPersistsThroughProgram)
{
    NandFlash nand(tinyConfig());
    PageContent c;
    c.slotTokens = {11, 22};
    c.oob = {OobEntry{100, 5}, OobEntry{200, 6}};
    nand.program(0, c, 0);
    const PageContent &read_back = nand.peek(0);
    ASSERT_EQ(read_back.oob.size(), 2u);
    EXPECT_EQ(read_back.oob[0].lpn, 100u);
    EXPECT_EQ(read_back.oob[1].version, 6u);
}

} // namespace
} // namespace checkin
