/**
 * @file
 * Exact heap-allocation gate for the host query path: closed-loop
 * ClientPool -> engine get/update -> journal group commit, on both
 * storage-engine backends.
 *
 * Part of checkin_alloc_tests (counting operator new, see
 * alloc_counter.h). An engine on an aged device is warmed with
 * closed-loop clients, then a fresh pool runs the measured
 * operations with no checkpoint (memtable flush) in the window.
 * Read-only traffic must allocate nothing. Updates may allocate only
 * the buffers the journal still builds per group commit for its
 * device write: the placed records, the sector payload and the
 * per-unit OOB annotations.
 */

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "engine/kv_engine.h"
#include "engine/layout.h"
#include "engine/lsm/lsm_layout.h"
#include "harness/copy_drill.h"
#include "harness/node_stack.h"
#include "harness/presets.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"
#include "workload/client.h"

namespace checkin {
namespace {

using test::heapAllocations;

/** Heap allocations per journal group commit in steady state. */
constexpr std::uint64_t kAllocsPerGroupCommit = 3;

class EngineAllocs : public ::testing::TestWithParam<EngineBackend>
{
  protected:
    static constexpr std::uint32_t kThreads = 32;

    EngineAllocs()
        : ctx_(7), scope_(ctx_), stack_(ctx_, config(GetParam()))
    {
        Ssd &ssd = stack_.ssd();
        ageDevice(ctx_.events(), ssd, storeEnd(stack_.engine().config()),
                  ssd.capacitySectors());
        stack_.load([](std::uint64_t) { return 256u; });
        stack_.engine().start();

        // Warm up: every key gets a journal-resident version (so the
        // JMT holds them all), and both query kinds run once at full
        // concurrency so every reusable buffer reaches its size.
        WorkloadSpec every_key = WorkloadSpec::wo();
        every_key.distribution = Distribution::Uniform;
        run(every_key, 4000);
        run(WorkloadSpec::a(), 4000);
        run(WorkloadSpec::c(), 4000);
        primeEventQueue(ctx_.events());
    }

    static ExperimentConfig
    config(EngineBackend backend)
    {
        ExperimentConfig cfg = presets::small();
        cfg.nand.blocksPerPlane = 32;
        cfg.engine.backend = backend;
        cfg.engine.recordCount = 512;
        // Checkpoints only on request or journal space pressure: none
        // runs inside a window.
        cfg.engine.checkpointInterval = 0;
        cfg.engine.checkpointJournalBytes =
            cfg.engine.journalHalfBytes;
        return cfg;
    }

    /** First sector past the store's on-disk areas. */
    Lba
    storeEnd(const EngineConfig &ec)
    {
        const std::uint64_t cap = stack_.ssd().capacitySectors();
        const std::uint32_t spu = stack_.ssd().ftl().sectorsPerUnit();
        if (ec.backend == EngineBackend::Lsm) {
            const LsmLayout l = LsmLayout::compute(ec, cap, spu);
            return l.l1Start[1] + l.l1Sectors;
        }
        const DiskLayout l = DiskLayout::compute(ec, cap, spu);
        return l.dataStart + l.dataSectors;
    }

    /** Run @p ops of @p spec from closed-loop clients; returns the
     *  heap allocations made while they ran. */
    std::uint64_t
    run(WorkloadSpec spec, std::uint64_t ops)
    {
        spec.operationCount = ops;
        ClientPool pool(ctx_, stack_.engine(), spec, kThreads);
        const std::uint64_t before = heapAllocations();
        pool.start();
        while (!pool.done() && ctx_.events().step()) {
        }
        const std::uint64_t during = heapAllocations() - before;
        EXPECT_EQ(pool.stats().opsCompleted, ops);
        return during;
    }

    std::uint64_t
    stat(const char *name) const
    {
        return stack_.engine().stats().get(name);
    }

    /** The Check-In engine under test; nullptr on the LSM. */
    const KvEngine *
    checkin() const
    {
        return dynamic_cast<const KvEngine *>(&stack_.engine());
    }

    SimContext ctx_;
    SimContextScope scope_;
    NodeStack stack_;
};

TEST_P(EngineAllocs, ReadOnlyQueriesAllocateNothing)
{
    constexpr std::uint64_t kOps = 8000;
    const std::uint64_t gets0 = stat("engine.gets");
    const std::uint64_t ckpts0 = stat("engine.checkpoints");

    EXPECT_EQ(run(WorkloadSpec::c(), kOps), 0u);
    EXPECT_EQ(stat("engine.gets") - gets0, kOps);
    EXPECT_EQ(stat("engine.checkpoints"), ckpts0);
}

TEST_P(EngineAllocs, GroupCommitsAllocateOnlyTheirWriteBuffers)
{
    // Short enough that neither backend's journal half fills (the
    // LSM pads every record to whole units) inside the window.
    constexpr std::uint64_t kOps = 4000;
    const std::uint64_t flushes0 = stat("engine.journalFlushes");
    const std::uint64_t updates0 = stat("engine.updates");
    const std::uint64_t ckpts0 = stat("engine.checkpoints");
    if (checkin() != nullptr)
        ASSERT_EQ(checkin()->jmtSize(), 512u);

    const std::uint64_t allocs = run(WorkloadSpec::a(), kOps);
    const std::uint64_t flushes =
        stat("engine.journalFlushes") - flushes0;

    EXPECT_GT(stat("engine.updates") - updates0, 1000u);
    EXPECT_GT(flushes, 0u);
    EXPECT_EQ(allocs, kAllocsPerGroupCommit * flushes)
        << allocs << " allocations over " << flushes
        << " group commits";
    // The window stayed between checkpoints.
    EXPECT_EQ(stat("engine.checkpoints"), ckpts0);
    if (checkin() != nullptr)
        EXPECT_EQ(checkin()->jmtSize(), 512u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineAllocs,
    ::testing::Values(EngineBackend::CheckIn, EngineBackend::Lsm),
    [](const ::testing::TestParamInfo<EngineBackend> &info) {
        return info.param == EngineBackend::CheckIn ? "checkin"
                                                    : "lsm";
    });

} // namespace
} // namespace checkin
