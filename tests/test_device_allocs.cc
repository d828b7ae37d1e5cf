/**
 * @file
 * Exact heap-allocation gate for the device data path.
 *
 * This executable links a counting global operator new
 * (alloc_counter.cc; kept out of checkin_tests so no other suite pays
 * for it). It drives the steady-state CopyPathDrill — forced-copy
 * CheckpointRemap batches, host reads and sub-unit RMW writes — on an
 * aged device with GC running and on a factory-fresh device whose
 * page programs hit never-programmed pages, and asserts that the
 * device stack performs exactly zero heap allocations. A per-record
 * or per-page allocation added anywhere on the ISCE / FTL / NAND /
 * SSD front-end path fails here deterministically instead of hiding
 * in host-time noise.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "harness/copy_drill.h"

namespace checkin {
namespace {

using test::heapAllocations;

TEST(AllocCounter, CountsHeapAllocations)
{
    const std::uint64_t before = heapAllocations();
    auto v = std::make_unique<std::vector<int>>(16);
    const std::uint64_t counted = heapAllocations() - before;
    EXPECT_EQ(counted, 2u); // the vector object and its storage
}

class DeviceAllocs : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    /** Run @p rounds measured rounds of @p drill; expect 0 allocations
     *  and that the window exercised the copy and RMW paths. */
    static void expectDrillAllocatesNothing(CopyPathDrill &drill,
                                            std::uint32_t rounds);
};

void
DeviceAllocs::expectDrillAllocatesNothing(CopyPathDrill &drill,
                                          std::uint32_t rounds)
{
    Ssd &ssd = drill.ssd();
    const std::uint64_t copied0 =
        ssd.stats().get("isce.copiedPairs");
    const std::uint64_t rmw0 = ssd.ftl().stats().get("ftl.rmwReads");
    const std::uint64_t programs0 = ssd.nand().stats().get("nand.programs");
    const std::uint64_t done0 = drill.completed();
    drill.prepare(rounds);

    const std::uint64_t before = heapAllocations();
    const std::uint64_t records = drill.run();
    const std::uint64_t during = heapAllocations() - before;

    EXPECT_EQ(during, 0u) << "device data path allocated " << during
                          << " times over " << records
                          << " copied records";
    // The window really exercised the paths the gate is about.
    EXPECT_EQ(records, std::uint64_t(rounds) *
                           CopyPathDrill::kRecordsPerRound);
    EXPECT_EQ(ssd.stats().get("isce.copiedPairs") - copied0, records);
    EXPECT_EQ(ssd.stats().get("isce.remappedPairs"), 0u);
    EXPECT_GT(ssd.nand().stats().get("nand.programs"), programs0);
    EXPECT_EQ(drill.completed() - done0,
              std::uint64_t(rounds) * CopyPathDrill::kCommandsPerRound);
    if (ssd.ftl().sectorsPerUnit() > 1) {
        EXPECT_GT(ssd.ftl().stats().get("ftl.rmwReads"), rmw0);
    }
}

TEST_P(DeviceAllocs, SteadyStateDataPathAllocatesNothing)
{
    CopyPathDrill drill(GetParam());
    const std::uint64_t gc0 =
        drill.ssd().ftl().stats().get("gc.invocations");
    expectDrillAllocatesNothing(drill, 200);
    EXPECT_GT(drill.ssd().ftl().stats().get("gc.invocations"), gc0);
}

// The device's geometry-sized state starts as untouched zero pages and
// page contents live only in the FTL shadows, so a page's first
// program needs no heap buffer: no aging is required for the gate.
TEST_P(DeviceAllocs, FactoryFreshDataPathAllocatesNothing)
{
    CopyPathDrill drill(GetParam(), CopyPathDrill::Start::FactoryFresh);
    expectDrillAllocatesNothing(drill, 200);
    // Nothing was ever erased: every program in the window was the
    // first program of its page.
    EXPECT_EQ(drill.ssd().nand().totalEraseCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(MappingUnits, DeviceAllocs,
                         ::testing::Values(512u, 2048u, 4096u),
                         [](const auto &info) {
                             return std::to_string(info.param);
                         });

} // namespace
} // namespace checkin
