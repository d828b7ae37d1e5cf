/**
 * @file
 * Crash-recovery walkthrough: run a write burst, power-cut the host
 * mid-flight (device state survives, host memory does not), rebuild
 * the engine from the device, and show what was recovered.
 */

#include <cstdio>

#include "engine/storage_engine.h"
#include "harness/node_stack.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "sim/rng.h"

int
main()
{
    using namespace checkin;

    // A Check-In class device: the mode resolves to the 512 B
    // mapping unit (ExperimentConfig::resolvedMappingUnit).
    ExperimentConfig cfg;
    cfg.nand.blocksPerPlane = 64;
    cfg.nand.pagesPerBlock = 64;
    cfg.engine.mode = CheckpointMode::CheckIn;
    cfg.engine.recordCount = 2000;
    cfg.engine.journalHalfBytes = 4 * kMiB;
    cfg.engine.checkpointJournalBytes = 2 * kMiB;
    cfg.engine.checkpointInterval = 0; // manual checkpoints

    SimContext ctx;
    EventQueue &eq = ctx.events();
    NodeStack node(ctx, cfg);
    node.load([](std::uint64_t) { return 512u; });
    std::printf("loaded %u keys at version 1\n", 2000);

    // Phase 1: committed work, then a checkpoint.
    Rng rng(7);
    std::uint64_t committed = 0;
    for (int i = 0; i < 1500; ++i) {
        node.engine().update(
            rng.nextBounded(2000),
            std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&](const QueryResult &) { ++committed; });
    }
    eq.run();
    node.engine().requestCheckpoint();
    eq.run();
    std::printf("phase 1: %llu updates committed, checkpoint done\n",
                (unsigned long long)committed);

    // Phase 2: more updates, but CRASH while they are in flight.
    for (int i = 0; i < 1000; ++i) {
        node.engine().update(
            rng.nextBounded(2000),
            std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&](const QueryResult &) { ++committed; });
    }
    int steps = 0;
    while (steps++ < 400 && eq.step()) {
    }
    std::printf("phase 2: power cut at t=%.3f ms with %llu total "
                "commits acknowledged\n",
                double(eq.now()) / double(kMsec),
                (unsigned long long)committed);

    // Host memory is gone: all pending host work and the engine's
    // RAM die. Recovery: a fresh engine rebuilds from catalog +
    // journal.
    node.crash(CrashModel::HostRestart);
    const RecoveryInfo info = node.recover();
    std::printf("recovered: %llu keys from catalog, %llu journal "
                "logs replayed, %.3f ms simulated recovery time\n",
                (unsigned long long)info.catalogKeys,
                (unsigned long long)info.replayedLogs,
                double(info.duration) / double(kMsec));

    const std::uint64_t verified = node.engine().verifyAllKeys();
    std::printf("verified %llu keys after recovery — store is "
                "consistent\n",
                (unsigned long long)verified);

    // And it keeps serving.
    bool ok = false;
    node.engine().get(42, [&](const QueryResult &r) { ok = r.found; });
    eq.run();
    std::printf("post-recovery GET(42): %s\n",
                ok ? "found" : "missing");
    return ok ? 0 : 1;
}
