/**
 * @file
 * Storage-engine backend comparison — the same YCSB A/B/C workloads
 * driven through both StorageEngine backends (`checkin`
 * checkpoint-journal vs `lsm` memtable/WAL with ISCE-offloaded
 * compaction) on identical devices. Reports throughput, tail
 * latency, flash write amplification, and where op time went
 * (device-busy share from the latency attribution), and emits
 * BENCH_engines.json through the deterministic sweep runner.
 *
 * Usage: engine_compare [--quick] [--jobs N]
 */

#include <cstdio>

#include "bench_common.h"

using namespace checkin;
using namespace checkin::bench;

namespace {

/** Dwell spent inside the device, summed over all op classes. */
Tick
deviceDwell(const obs::AttributionSummary &s)
{
    Tick t = 0;
    for (const obs::ClassBreakdown &cb : s.perClass) {
        for (std::size_t st = 0; st < obs::kStageCount; ++st) {
            switch (obs::Stage(st)) {
              case obs::Stage::SsdQueue:
              case obs::Stage::Firmware:
              case obs::Stage::FtlMap:
              case obs::Stage::DramCache:
              case obs::Stage::NandWait:
              case obs::Stage::NandMedia:
              case obs::Stage::GcStall:
              case obs::Stage::Bus:
              case obs::Stage::Backpressure:
                t += cb.dwell[st];
                break;
              default:
                break;
            }
        }
    }
    return t;
}

Tick
totalDwell(const obs::AttributionSummary &s)
{
    Tick t = 0;
    for (const obs::ClassBreakdown &cb : s.perClass)
        t += cb.totalTicks();
    return t;
}

const char *
backendName(EngineBackend b)
{
    return engineBackendName(b);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const SweepOptions opts = sweepOptionsFromArgs(argc, argv, &quick);

    printConfigOnce(presets::paper());
    printHeader("Engine comparison",
                "checkpoint-journal vs LSM backend, YCSB A/B/C");

    ExperimentConfig base = presets::paper();
    base.obs.attributionEnabled = true;
    base.workload.operationCount = quick ? 5'000 : 20'000;
    // Tight enough that even the quick run drives several
    // checkpoint/flush cycles (and LSM compactions) per point.
    base.engine.checkpointJournalBytes = 256 * kKiB;

    const WorkloadSpec specs[] = {WorkloadSpec::a(),
                                  WorkloadSpec::b(),
                                  WorkloadSpec::c()};
    const EngineBackend backends[] = {EngineBackend::CheckIn,
                                      EngineBackend::Lsm};

    std::vector<SweepPoint> points;
    for (const WorkloadSpec &spec : specs) {
        for (EngineBackend b : backends) {
            ExperimentConfig c = base;
            c.workload = spec;
            c.workload.operationCount =
                base.workload.operationCount;
            c.engine.backend = b;
            points.push_back({std::string(spec.name) + "-" +
                                  backendName(b),
                              c});
        }
    }

    BenchReport report("engines");
    const std::vector<SweepOutcome> outcomes =
        runBenchSweep(points, opts, report);

    Table t({"workload", "engine", "kops/s", "p99.9 ms", "WAF",
             "device busy %", "ckpt/flush", "jrnl stalls"});
    for (const WorkloadSpec &spec : specs) {
        for (EngineBackend b : backends) {
            const std::string label =
                std::string(spec.name) + "-" + backendName(b);
            const SweepOutcome &o = outcomeByLabel(outcomes, label);
            const RunResult &r = o.result;
            report.add(o.label, r);
            const Tick total = totalDwell(r.attribution);
            const double busy =
                total == 0 ? 0.0
                           : 100.0 * double(deviceDwell(
                                         r.attribution)) /
                                 double(total);
            t.addRow({spec.name, backendName(b),
                      Table::num(r.throughputOps / 1e3, 2),
                      Table::num(
                          double(r.client.all.quantile(0.999)) /
                              1e6,
                          2),
                      Table::num(r.waf, 2), Table::num(busy, 1),
                      Table::num(r.checkpoints),
                      Table::num(r.journalStalls)});
        }
    }
    std::printf("%s", t.render().c_str());
    printPaperNote(
        "(extension, no paper counterpart) both backends ride the "
        "same ISCE offload: the checkpoint-journal engine remaps "
        "journal units over data slots, the LSM engine remaps WAL "
        "units into L0 runs and merges runs device-side. "
        "Write-amplification splits on update size: in-place slots "
        "rewrite whole units, the LSM pays compaction copies "
        "instead.");
    return 0;
}
