/**
 * @file
 * Fault-injection sweep + crash-consistency oracle.
 *
 * Part 1 sweeps fault intensity (off / nominal / end-of-life) across
 * all five checkpoint configurations on the parallel sweep runner and
 * records throughput, retry, and retirement behaviour into
 * BENCH_fault.json.
 *
 * Part 2 runs the crash oracle for the Baseline and Check-In modes
 * under the nominal fault plan: N seeded power cuts (half of them
 * aimed inside checkpoint windows), each followed by SPOR + firmware
 * rebuild + engine recovery, asserting that no acknowledged write is
 * lost and no torn record is served. A violated invariant fails the
 * process (exit 1), so CI can run this binary as a correctness gate.
 *
 * Flags: --quick (CI-sized: fewer ops and 8 crash points instead of
 * 50), --jobs N (sweep workers).
 */

#include <cstdio>

#include "bench_common.h"
#include "harness/crash_oracle.h"

using namespace checkin;
using namespace checkin::bench;

namespace {

/** Labeled fault intensities; "off" anchors the no-fault baseline. */
std::vector<SweepGrid::Value>
faultAxis()
{
    return {
        {"faults:off", [](ExperimentConfig &c) { c.faults = {}; }},
        {"faults:nominal",
         [](ExperimentConfig &c) {
             c.faults = presets::faulty().faults;
         }},
        {"faults:eol",
         [](ExperimentConfig &c) {
             c.faults = presets::faulty().faults;
             c.faults.readBitErrorProb = 5e-3;
             c.faults.programFailProb = 1e-3;
             c.faults.eraseFailProb = 5e-3;
             c.faults.wearFactor = 2.0;
         }},
    };
}

void
intensitySweep(BenchReport &report, const SweepOptions &opts,
               bool quick)
{
    printHeader("Fault sweep",
                "fault intensity x checkpoint configuration");
    ExperimentConfig base = presets::faulty();
    base.faults = {}; // the axis sets it
    if (quick)
        base.workload.operationCount = 4'000;
    printConfigOnce(base);

    std::vector<SweepGrid::Value> modes;
    for (CheckpointMode m : kAllModes) {
        modes.push_back({modeName(m), [m](ExperimentConfig &c) {
                             c.engine.mode = m;
                         }});
    }
    const std::vector<SweepPoint> points =
        SweepGrid(base).axis(modes).axis(faultAxis()).points();
    const std::vector<SweepOutcome> outcomes =
        runBenchSweep(points, opts, report);

    std::printf("%-22s %10s %10s %8s %8s %8s %8s\n", "config",
                "kops/s", "retries", "uncorr", "pgmFail", "badBlk",
                "digest16");
    for (const SweepOutcome &o : outcomes) {
        const auto &raw = o.result.raw;
        const auto get = [&raw](const char *k) {
            const auto it = raw.find(k);
            return it == raw.end() ? std::uint64_t(0) : it->second;
        };
        std::printf("%-22s %10.1f %10llu %8llu %8llu %8llu %8llx\n",
                    o.label.c_str(),
                    o.result.throughputOps / 1e3,
                    (unsigned long long)get("fault.readRetries"),
                    (unsigned long long)get(
                        "fault.uncorrectableReads"),
                    (unsigned long long)get("fault.programFails"),
                    (unsigned long long)get("ftl.retiredBlocks"),
                    (unsigned long long)(get("fault.digest") &
                                         0xFFFF));
        report.add(o.label, o.result);
    }
}

/** Oracle campaign for one mode; returns false on any violation. */
bool
oracleFor(CheckpointMode mode, bool quick)
{
    OracleConfig cfg;
    cfg.base = presets::faulty();
    // Small store so each of the N replays loads fast; the oracle
    // drives its own ops, the workload spec is unused.
    cfg.base.engine.mode = mode;
    cfg.base.engine.recordCount = 300;
    cfg.base.engine.journalHalfBytes = 2 * kMiB;
    cfg.base.engine.checkpointJournalBytes = kMiB;
    cfg.base.nand.blocksPerPlane = 32;
    cfg.base.nand.pagesPerBlock = 32;
    cfg.seed = 42;
    cfg.crashPoints = quick ? 8 : 50;
    cfg.ops = quick ? 300 : 600;

    const OracleReport r = runCrashOracle(cfg);
    std::printf("%-10s crashes=%u midCkpt=%u acked=%llu lost=%llu "
                "torn=%llu digest=%016llx -> %s\n",
                modeName(mode), r.crashesRun,
                r.midCheckpointCrashes,
                (unsigned long long)r.ackedWrites,
                (unsigned long long)r.lostWrites,
                (unsigned long long)r.tornRecords,
                (unsigned long long)r.faultDigest,
                r.ok() ? "OK" : "VIOLATION");
    return r.ok();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const SweepOptions opts = sweepOptionsFromArgs(argc, argv, &quick);

    BenchReport report("fault");
    intensitySweep(report, opts, quick);

    printHeader("Crash-consistency oracle",
                "seeded power cuts + SPOR + recovery, acked-write "
                "durability and torn-record checks");
    bool ok = true;
    ok &= oracleFor(CheckpointMode::Baseline, quick);
    ok &= oracleFor(CheckpointMode::CheckIn, quick);
    if (!ok) {
        std::fprintf(stderr,
                     "crash oracle detected a durability "
                     "violation\n");
        return 1;
    }
    std::printf("\noracle passed for all probed modes\n");
    return 0;
}
