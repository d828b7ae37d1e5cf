/**
 * @file
 * Shared test geometry and the engine-level test fixture.
 *
 * Device tests run on one of two NAND geometries defined here; every
 * test that needs a loaded device + engine builds it through
 * TestStack, i.e. through the same NodeStack the harness, the cluster
 * shards and the crash oracle use (harness/node_stack.h), so the
 * mapping unit, fault plan and load/quiesce order match theirs.
 */

#ifndef CHECKIN_TESTS_TEST_STACK_H_
#define CHECKIN_TESTS_TEST_STACK_H_

#include <cstdint>
#include <functional>

#include "engine/kv_engine.h"
#include "harness/experiment.h"
#include "harness/node_stack.h"
#include "nand/nand_config.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"

namespace checkin {

/** 2 channels x 2 dies x 32 blocks x 32 pages (16 MiB): room for a
 *  few hundred keys plus journal and checkpoint traffic. */
inline NandConfig
smallNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.blocksPerPlane = 32;
    c.pagesPerBlock = 32;
    return c;
}

/** 2 channels x 1 die x 16 blocks x 16 pages (2 MiB): device-level
 *  tests that fill, rewrite and collect the whole array. */
inline NandConfig
deviceNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 1;
    c.blocksPerPlane = 16;
    c.pagesPerBlock = 16;
    return c;
}

/** smallNand() with default FTL and SSD settings and @p engine. */
inline ExperimentConfig
stackConfig(const EngineConfig &engine)
{
    ExperimentConfig c;
    c.nand = smallNand();
    c.engine = engine;
    return c;
}

/**
 * stackConfig() for a @p mode engine over @p records keys: 2 MiB
 * journal halves, a checkpoint every @p ckpt_bytes of logs, and no
 * checkpoint timer (tests request checkpoints explicitly).
 */
inline ExperimentConfig
stackConfig(CheckpointMode mode, std::uint64_t records = 300,
            std::uint64_t ckpt_bytes = kMiB)
{
    EngineConfig e;
    e.mode = mode;
    e.recordCount = records;
    e.journalHalfBytes = 2 * kMiB;
    e.checkpointJournalBytes = ckpt_bytes;
    e.checkpointInterval = 0;
    return stackConfig(e);
}

/**
 * A loaded node stack on its own default-seeded context. The engine
 * is viewed as @p Engine: KvEngine for tests of Check-In internals,
 * StorageEngine for backend-agnostic ones.
 */
template <class Engine = KvEngine>
struct TestStack
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    NodeStack node;
    Ssd *ssd;
    Engine *engine;

    TestStack(const ExperimentConfig &cfg,
              const std::function<std::uint32_t(std::uint64_t)> &size_of)
        : node(ctx, cfg),
          ssd(&node.ssd()),
          engine(&dynamic_cast<Engine &>(node.engine()))
    {
        node.load(size_of);
    }

    /** Every key loads a @p value_bytes value. */
    TestStack(const ExperimentConfig &cfg, std::uint32_t value_bytes)
        : TestStack(cfg, [value_bytes](std::uint64_t) {
              return value_bytes;
          })
    {
    }

    /** Replace the crashed engine by a recovered one. */
    RecoveryInfo
    recover()
    {
        const RecoveryInfo info = node.recover();
        engine = &dynamic_cast<Engine &>(node.engine());
        return info;
    }
};

} // namespace checkin

#endif // CHECKIN_TESTS_TEST_STACK_H_
