/**
 * @file
 * checkin_cli — the experiment front end. The default command runs one
 * configuration (`--preset small|paper|faulty`, or `cluster` for the
 * sharded simulation of src/cluster/) and prints a metric report; the
 * subcommands `trace`, `latency`, `lifetime`, `optrace` and `report`
 * give the traced, attributed, flash-wear, operation-trace and HTML
 * views. `checkin_cli --help` lists every flag and subcommand.
 *
 * Every name and number on the command line goes through the strict
 * parsers of harness/presets.h; a bad one prints the reason and the
 * command exits with status 2.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "engine/storage_engine.h"
#include "harness/experiment.h"
#include "harness/node_stack.h"
#include "harness/presets.h"
#include "harness/report.h"
#include "harness/table.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "workload/trace.h"

namespace {

using namespace checkin;

/** A command-line error: printed on stderr, exit status 2 (any
 *  other exception exits 1). */
using UsageError = std::invalid_argument;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

void
usage()
{
    std::printf(
        "checkin_cli — Check-In experiment runner\n\n"
        "  --preset P        small|paper|faulty|cluster (default "
        "small)\n"
        "  --engine E        checkin|lsm storage backend (default "
        "checkin)\n"
        "  --mode M          baseline|isc-a|isc-b|isc-c|checkin "
        "(default checkin)\n"
        "  --workload W      a|b|c|d|e|f|wo (default a)\n"
        "  --policy P        fixed|adaptive checkpoint trigger "
        "(default fixed;\n"
        "                    adaptive also turns attribution on)\n"
        "  --threads N       client threads (default 32)\n"
        "  --ops N           operations (default 40000)\n"
        "  --record-count N  keys in the store (default 4000)\n"
        "  --interval-ms N   checkpoint timer period (small 25, "
        "paper 200)\n"
        "  --threshold-mib N checkpoint journal threshold (small 2, "
        "paper 6)\n"
        "  --unit BYTES      override FTL mapping unit (512..4096)\n"
        "  --pattern P       record-size pattern 1..4\n"
        "  --seed N          workload seed (default 42)\n"
        "  --device-mib N    raw flash capacity (default 128)\n"
        "  --csv             one CSV line instead of the report\n"
        "\nobservability (single-node and cluster):\n"
        "  --openloop RATE[:PROC]  open-loop arrivals at RATE ops/s,\n"
        "                    PROC poisson|mmpp|diurnal (default\n"
        "                    poisson), with a default 2 ms-SLO tenant\n"
        "                    (SLO accounting + anomaly detection need\n"
        "                    this)\n"
        "  --telemetry       continuous telemetry: windowed series +\n"
        "                    anomaly black box (telemetry.json,\n"
        "                    blackbox.json under --artifact-dir)\n"
        "  --telemetry-window MS  sampling window (default 1)\n"
        "  --blackbox-depth N     black-box ring depth: N samples,\n"
        "                         4N events (default 64)\n"
        "  --artifact-dir D  write the artifact bundle under D\n"
        "\ncluster preset only:\n"
        "  --shards N        engine shards behind the router "
        "(default 4)\n"
        "  --policy P        independent|synchronized|staggered|all "
        "(default independent)\n"
        "  --sync-threads N  synchronizer worker threads (0 = "
        "auto, default 1)\n"
        "\nsubcommands (mode: baseline|isc-a|isc-b|isc-c|checkin):\n"
        "  trace [out_dir] [mode] [ops]    traced YCSB-A run (default\n"
        "                    trace-out checkin 4000): Chrome trace\n"
        "                    bundle + per-layer event counts\n"
        "  latency [out_dir] [mode] [ops]  attributed YCSB-A run\n"
        "                    (default latency-out checkin 8000): where\n"
        "                    the latency went, checkpoint timeline\n"
        "  lifetime [ops]    YCSB-WO on all five modes (default 60000):\n"
        "                    flash wear, Eq (1) relative lifetime\n"
        "  optrace gen <workload> <keys> <ops> <file> | info <file>\n"
        "          | replay <file> <mode> [threads]  operation traces\n"
        "  report DIR [--out FILE]\n"
        "                    render DIR's artifacts (telemetry.json\n"
        "                    required) as self-contained HTML (default\n"
        "                    DIR/report.html) + a terminal summary\n");
}

/** Positional arguments of a subcommand (argv[2..]), at most @p max. */
std::vector<std::string>
positionals(int argc, char **argv, std::size_t max, const char *synopsis)
{
    std::vector<std::string> pos(argv + 2, argv + argc);
    if (pos.size() > max ||
        std::any_of(pos.begin(), pos.end(),
                    [](const std::string &p) { return p[0] == '-'; }))
        throw UsageError(std::string("usage: checkin_cli ") + synopsis);
    return pos;
}

/**
 * Open-loop arrivals at RATE[:process] ops/s with one default-SLO
 * tenant (SLO accounting and the SloStreak anomaly need a tenant with
 * an SLO).
 */
void
applyOpenloop(TrafficSpec &traffic, const std::string &value)
{
    const std::size_t colon = value.find(':');
    const std::string rate = value.substr(0, colon);
    std::size_t used = 0;
    double ops = 0.0;
    try {
        ops = std::stod(rate, &used);
    } catch (const std::exception &) {
    }
    if (used != rate.size() || !std::isfinite(ops) || !(ops > 0.0)) {
        throw UsageError("--openloop expects a positive rate in ops/s, "
                         "got '" + rate + "'");
    }
    if (colon != std::string::npos)
        traffic.process =
            presets::parseArrivalProcess(value.substr(colon + 1));
    traffic.mode = LoopMode::Open;
    traffic.offeredOpsPerSec = ops;
    if (traffic.tenants.empty())
        traffic.tenants.push_back(TenantSpec{});
}

int
runReport(int argc, char **argv)
{
    std::string dir;
    std::string out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (dir.empty() && arg[0] != '-')
            dir = arg;
        else
            throw UsageError("report: unexpected '" + arg + "'");
    }
    if (dir.empty())
        throw UsageError("report needs an artifact directory");
    if (out.empty())
        out = dir + "/report.html";
    const std::string html = renderRunReportHtml(dir);
    std::ofstream f(out, std::ios::binary);
    if (!(f << html))
        throw std::runtime_error("cannot write '" + out + "'");
    f.close();
    std::printf("%s", renderRunReportText(dir).c_str());
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), html.size());
    return 0;
}

void
printPolicyRow(Table &t, const char *policy, const ClusterResult &r)
{
    std::uint64_t ckpts = 0;
    double stall_ms = 0.0;
    for (const ShardSummary &s : r.shards) {
        ckpts += s.checkpoints;
        stall_ms += double(s.ckptStallTicks) / double(kMsec);
    }
    t.addRow({policy, Table::num(r.router.opsCompleted),
              Table::num(r.throughputOps, 0),
              Table::num(double(r.router.all.quantile(0.5)) /
                             double(kUsec),
                         1),
              Table::num(double(r.router.all.quantile(0.999)) /
                             double(kUsec),
                         1),
              Table::num(ckpts), Table::num(stall_ms, 2),
              Table::num(r.sync.windows)});
}

int
runClusterCli(ClusterConfig &cfg, bool all_policies)
{
    std::printf("=== cluster / %u shards / %u clients / %llu ops "
                "===\n",
                cfg.shardCount, cfg.clients,
                (unsigned long long)cfg.workload.operationCount);

    Table policy_table({"policy", "ops", "ops/s", "p50 us",
                        "p99.9 us", "ckpts", "stall ms", "windows"});
    cfg.attributionEnabled = true;
    const std::vector<CkptCoordination> policies =
        all_policies ? std::vector{CkptCoordination::Independent,
                                   CkptCoordination::Synchronized,
                                   CkptCoordination::Staggered}
                     : std::vector{cfg.coordination};
    ClusterResult last;
    for (const CkptCoordination p : policies) {
        cfg.coordination = p;
        last = runCluster(cfg);
        printPolicyRow(policy_table, ckptCoordinationName(p), last);
    }
    std::printf("\n%s\n", policy_table.render().c_str());
    if (all_policies)
        return 0;

    Table shard_table({"shard", "keys", "ops", "MiB", "svc p99.9 us",
                       "ckpts", "avg ckpt ms", "nand r/p/e",
                       "stalls"});
    for (const ShardSummary &s : last.shards) {
        shard_table.addRow(
            {Table::num(std::uint64_t(s.shard)), Table::num(s.keys),
             Table::num(s.ops),
             Table::num(double(s.bytes) / double(kMiB), 2),
             Table::num(double(s.service.quantile(0.999)) /
                            double(kUsec),
                        1),
             Table::num(s.checkpoints),
             Table::num(s.avgCheckpointMs, 2),
             Table::num(s.nandReads) + "/" +
                 Table::num(s.nandPrograms) + "/" +
                 Table::num(s.nandErases),
             Table::num(s.journalStalls)});
    }
    std::printf("%s\n", shard_table.render().c_str());
    std::printf("windows %llu, cross-node messages %llu, events "
                "%llu, verified keys %llu\n",
                (unsigned long long)last.sync.windows,
                (unsigned long long)last.sync.messages,
                (unsigned long long)last.totalEvents,
                (unsigned long long)last.verifiedKeys);
    if (last.telemetry.enabled) {
        std::printf("telemetry: %llu samples / %llu events / %llu "
                    "anomalies across %u shards\n",
                    (unsigned long long)last.telemetry.samples,
                    (unsigned long long)last.telemetry.events,
                    (unsigned long long)last.telemetry.anomalies,
                    cfg.shardCount);
    }
    if (!last.artifacts.empty())
        std::printf("artifacts: %s\n", last.artifacts.dir.c_str());
    return 0;
}

int
runNodeCli(ExperimentConfig &cfg, std::uint64_t device_mib, bool csv)
{
    // Size the flash array: keep 4x2 dies, scale blocks per plane.
    const std::uint64_t per_block =
        std::uint64_t(cfg.nand.pagesPerBlock) * cfg.nand.pageBytes;
    cfg.nand.blocksPerPlane = std::uint32_t(
        device_mib * kMiB / (per_block * cfg.nand.dieCount()));
    if (cfg.nand.blocksPerPlane < 16)
        throw UsageError("device too small");

    const RunResult r = runExperiment(cfg);
    const auto &c = r.client;
    if (csv) {
        std::printf(
            "engine,mode,workload,threads,ops,kops,avg_us,p99_us,"
            "p999_us,p9999_us,checkpoints,ckpt_avg_ms,redundant_mib,"
            "remaps,gc,erases,journal_pad\n");
        std::printf(
            "%s,%s,%s,%u,%llu,%.2f,%.1f,%.1f,%.1f,%.1f,%llu,%.2f,"
            "%.2f,%llu,%llu,%llu,%.4f\n",
            engineBackendName(cfg.engine.backend),
            checkpointModeName(cfg.engine.mode),
            cfg.workload.name.c_str(), cfg.threads,
            (unsigned long long)c.opsCompleted,
            r.throughputOps / 1e3, r.avgLatencyUs,
            double(c.all.quantile(0.99)) / 1e3,
            double(c.all.quantile(0.999)) / 1e3,
            double(c.all.quantile(0.9999)) / 1e3,
            (unsigned long long)r.checkpoints, r.avgCheckpointMs,
            double(r.redundantBytes) / double(kMiB),
            (unsigned long long)r.remaps,
            (unsigned long long)r.gcInvocations,
            (unsigned long long)r.nandErases,
            r.journalSpaceOverhead());
        return 0;
    }
    std::printf("=== %s / %s / %s / %u threads / %llu ops / %llu "
                "MiB device ===\n",
                engineBackendName(cfg.engine.backend),
                checkpointModeName(cfg.engine.mode),
                cfg.workload.name.c_str(), cfg.threads,
                (unsigned long long)c.opsCompleted,
                (unsigned long long)device_mib);
    std::printf("throughput        %10.0f ops/s\n", r.throughputOps);
    std::printf("avg latency       %10.1f us\n", r.avgLatencyUs);
    std::printf("p99 / p99.9 / p99.99  %8.1f / %.1f / %.1f us\n",
                double(c.all.quantile(0.99)) / 1e3,
                double(c.all.quantile(0.999)) / 1e3,
                double(c.all.quantile(0.9999)) / 1e3);
    std::printf("checkpoints       %10llu (avg %.2f ms, max %.2f "
                "ms)\n",
                (unsigned long long)r.checkpoints, r.avgCheckpointMs,
                r.maxCheckpointMs);
    std::printf("redundant writes  %10.2f MiB\n",
                double(r.redundantBytes) / double(kMiB));
    std::printf("remaps            %10llu\n",
                (unsigned long long)r.remaps);
    std::printf("GC / erases       %10llu / %llu\n",
                (unsigned long long)r.gcInvocations,
                (unsigned long long)r.nandErases);
    std::printf("NAND r/p          %10llu / %llu\n",
                (unsigned long long)r.nandReads,
                (unsigned long long)r.nandPrograms);
    std::printf("journal overhead  %10.1f %%\n",
                r.journalSpaceOverhead() * 100.0);
    std::printf("redundant slots   %10llu\n",
                (unsigned long long)r.redundantSlotWrites);
    std::printf("GC migrated slots %10llu\n",
                (unsigned long long)r.gcMigratedSlots);
    std::printf("journal stalls    %10llu\n",
                (unsigned long long)r.journalStalls);
    if (cfg.traffic.mode == LoopMode::Open) {
        std::printf("offered load      %10.0f ops/s (%s, achieved "
                    "%.0f)\n",
                    c.offeredOpsPerSec(),
                    arrivalProcessName(cfg.traffic.process),
                    c.opsPerSec());
        std::printf("queue delay p99.9 %10.1f us\n",
                    double(c.queueDelay.quantile(0.999)) / 1e3);
        std::printf("journal fill rate %10.0f KiB/s\n",
                    r.journalFillRate / double(kKiB));
    }
    if (r.telemetry.enabled) {
        std::printf("telemetry         %10llu samples / %llu events "
                    "/ %llu anomalies\n",
                    (unsigned long long)r.telemetry.samples,
                    (unsigned long long)r.telemetry.events,
                    (unsigned long long)r.telemetry.anomalies);
    }
    if (!r.artifacts.empty())
        std::printf("artifacts         %s\n", r.artifacts.dir.c_str());
    return 0;
}

/** Where the flags both the single-node and the cluster presets
 *  accept land in the configuration being built. */
struct SharedTargets
{
    std::uint32_t &threads;
    WorkloadSpec &workload;
    TrafficSpec &traffic;
    std::string &artifactDir;
    ExperimentConfig &node; //!< engine and telemetry knobs
};

/** The default command: one flag loop for every preset. */
int
runConfigured(int argc, char **argv)
{
    // Pick the preset before the flag loop: it decides where the
    // shared flags land and which others are accepted.
    std::string preset = "small";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--preset")
            preset = argv[i + 1];
    }
    const bool cluster = preset == "cluster";
    ClusterConfig ccfg;
    ExperimentConfig ncfg;
    if (cluster)
        ccfg = presets::cluster();
    else if (preset == "small")
        ncfg = presets::small();
    else if (preset == "paper")
        ncfg = presets::paper();
    else if (preset == "faulty")
        ncfg = presets::faulty();
    else
        throw UsageError("unknown preset '" + preset +
                         "' (expected small|paper|faulty|cluster)");
    if (!cluster)
        ncfg.workload = WorkloadSpec::a();
    const SharedTargets s =
        cluster ? SharedTargets{ccfg.clients, ccfg.workload,
                                ccfg.traffic, ccfg.artifactDir,
                                ccfg.shard}
                : SharedTargets{ncfg.threads, ncfg.workload,
                                ncfg.traffic, ncfg.obs.artifactDir,
                                ncfg};
    bool csv = false;
    bool all_policies = false;
    std::uint64_t device_mib = 128;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw UsageError(flag + " needs a value");
            return argv[++i];
        };
        auto count = [&](std::uint64_t lo = 0,
                         std::uint64_t hi = kU64Max) {
            return presets::parseCount(flag, value(), lo, hi);
        };
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--preset")
            value(); // already dispatched on it
        else if (flag == "--threads")
            s.threads = std::uint32_t(count(1, kU32Max));
        else if (flag == "--ops")
            s.workload.operationCount = count();
        else if (flag == "--record-count")
            s.node.engine.recordCount = count(1);
        else if (flag == "--interval-ms")
            s.node.engine.checkpointInterval =
                count(0, kU64Max / kMsec) * kMsec;
        else if (flag == "--workload") {
            const auto ops = s.workload.operationCount;
            const auto seed = s.workload.seed;
            s.workload = presets::parseWorkload(value());
            s.workload.operationCount = ops;
            s.workload.seed = seed;
        } else if (flag == "--seed") {
            s.workload.seed = count();
            if (cluster)
                ccfg.seed = s.workload.seed;
        } else if (flag == "--openloop")
            applyOpenloop(s.traffic, value());
        else if (flag == "--telemetry")
            s.node.obs.telemetry.enabled = true;
        else if (flag == "--telemetry-window")
            s.node.obs.telemetry.window =
                count(0, kU64Max / kMsec) * kMsec;
        else if (flag == "--blackbox-depth") {
            s.node.obs.telemetry.blackboxSamples =
                std::uint32_t(count(0, kU32Max / 4));
            s.node.obs.telemetry.blackboxEvents =
                4 * s.node.obs.telemetry.blackboxSamples;
        } else if (flag == "--artifact-dir")
            s.artifactDir = value();
        else if (cluster) {
            if (flag == "--shards")
                ccfg.shardCount = std::uint32_t(count(1, kU32Max));
            else if (flag == "--sync-threads")
                ccfg.syncThreads = unsigned(
                    count(0, std::numeric_limits<unsigned>::max()));
            else if (flag == "--policy") {
                const std::string p = value();
                all_policies = p == "all";
                if (!all_policies)
                    ccfg.coordination = presets::parseCoordination(p);
            } else {
                throw UsageError("flag '" + flag +
                                 "' is not supported with --preset "
                                 "cluster");
            }
        } else if (flag == "--engine")
            ncfg.engine.backend = presets::parseEngineBackend(value());
        else if (flag == "--mode")
            ncfg.engine.mode = presets::parseCheckpointMode(value());
        else if (flag == "--policy") {
            ncfg.engine.checkpointPolicy =
                presets::parseCheckpointPolicy(value());
            // The adaptive controller's stall feedback reads the live
            // attribution signal.
            if (ncfg.engine.checkpointPolicy ==
                CheckpointPolicyKind::Adaptive)
                ncfg.obs.attributionEnabled = true;
        } else if (flag == "--threshold-mib")
            ncfg.engine.checkpointJournalBytes =
                count(0, kU64Max / kMiB) * kMiB;
        else if (flag == "--unit")
            ncfg.mappingUnitOverride = std::uint32_t(count(512, 4096));
        else if (flag == "--pattern")
            ncfg.workload.valueSizes =
                WorkloadSpec::sizePattern(std::uint32_t(count(1, 4)));
        else if (flag == "--device-mib")
            device_mib = count(1, kU32Max);
        else if (flag == "--csv")
            csv = true;
        else
            throw UsageError("unknown flag '" + flag + "'");
    }
    return cluster ? runClusterCli(ccfg, all_policies)
                   : runNodeCli(ncfg, device_mib, csv);
}

/**
 * Configuration of the trace / latency subcommands:
 * `[out_dir] [mode] [ops]` over a small-scale YCSB-A run at 16
 * threads, written to `<out_dir>/<name>-<Mode>/`.
 */
ExperimentConfig
explorerConfig(int argc, char **argv, const std::string &name,
               std::uint64_t default_ops)
{
    const std::vector<std::string> pos = positionals(
        argc, argv, 3, (name + " [out_dir] [mode] [ops]").c_str());
    ExperimentConfig cfg = presets::small();
    cfg.obs.artifactDir = pos.size() > 0 ? pos[0] : name + "-out";
    cfg.engine.mode = pos.size() > 1
                          ? presets::parseCheckpointMode(pos[1])
                          : CheckpointMode::CheckIn;
    cfg.workload = WorkloadSpec::a();
    cfg.workload.operationCount =
        pos.size() > 2 ? presets::parseCount("ops", pos[2])
                       : default_ops;
    cfg.threads = 16;
    cfg.obs.runName = name + "-" + checkpointModeName(cfg.engine.mode);
    return cfg;
}

void
printArtifactFiles(const RunResult &r)
{
    std::printf("artifacts in %s:\n", r.artifacts.dir.c_str());
    for (const std::string &f : r.artifacts.files)
        std::printf("  %s\n", f.c_str());
}

/**
 * `trace`: a traced run emitting a Chrome trace_event bundle
 * (trace.json, metrics.json/csv, series.csv, summary.json) plus a
 * per-layer event count. Load trace.json in ui.perfetto.dev.
 */
int
runTrace(int argc, char **argv)
{
    ExperimentConfig cfg = explorerConfig(argc, argv, "trace", 4'000);
    cfg.obs.traceEnabled = true;

    // Install the tracer here so the events survive the run:
    // runExperiment reuses an enabled ambient tracer instead of
    // creating its own (which would be gone once it returns).
    obs::Tracer tracer;
    tracer.setEnabled(true);
    obs::TraceScope scope(tracer);
    const RunResult r = runExperiment(cfg);

    std::printf("=== traced %s run, %llu ops ===\n",
                checkpointModeName(cfg.engine.mode),
                (unsigned long long)r.client.opsCompleted);
    std::printf("trace events      %10zu\n", tracer.eventCount());
    for (std::size_t c = 0; c < obs::kCatCount; ++c) {
        const auto cat = static_cast<obs::Cat>(c);
        const std::uint64_t n = tracer.countIn(cat);
        if (n > 0) {
            std::printf("  %-10s      %10llu\n", obs::catName(cat),
                        (unsigned long long)n);
        }
    }
    std::printf("sim span          %10.2f ms\n",
                double(r.simSpan) / double(kMsec));
    std::printf("checkpoints       %10llu\n",
                (unsigned long long)r.checkpoints);
    if (!r.artifacts.empty()) {
        printArtifactFiles(r);
        std::printf("open %s/trace.json in ui.perfetto.dev\n",
                    r.artifacts.dir.c_str());
    }
    return 0;
}

void
printBreakdown(
    const char *title,
    const std::array<obs::ClassBreakdown, obs::kOpClassCount> &classes)
{
    std::printf("%s\n", title);
    for (std::size_t c = 0; c < obs::kOpClassCount; ++c) {
        const obs::ClassBreakdown &cb = classes[c];
        if (cb.ops == 0)
            continue;
        const Tick total = cb.totalTicks();
        std::printf("  %-7s %8llu ops, avg %8.1f us\n",
                    obs::opClassName(obs::OpClass(c)),
                    (unsigned long long)cb.ops,
                    double(total) / double(cb.ops) / double(kUsec));
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            if (cb.dwell[s] == 0)
                continue;
            std::printf("    %-16s %6.1f %%\n",
                        obs::stageName(obs::Stage(s)),
                        100.0 * double(cb.dwell[s]) /
                            double(total));
        }
    }
}

/**
 * `latency`: an attributed run explaining where the latency went —
 * the per-class stage breakdown of all ops and of the tail ops, the
 * flight recorder's slowest ops, and the per-checkpoint timeline.
 */
int
runLatency(int argc, char **argv)
{
    ExperimentConfig cfg =
        explorerConfig(argc, argv, "latency", 8'000);
    cfg.obs.attributionEnabled = true;
    // Low byte threshold so even the short default run crosses a few
    // checkpoints and the timeline section has something to show.
    cfg.engine.checkpointJournalBytes = 256 * kKiB;

    // Install the collector here so the records survive the run:
    // runExperiment reuses an enabled ambient collector instead of
    // creating its own (which would be gone once it returns).
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::AttributionScope scope(&attr);
    const RunResult r = runExperiment(cfg);

    std::printf("=== attributed %s run, %llu ops ===\n\n",
                checkpointModeName(cfg.engine.mode),
                (unsigned long long)r.client.opsCompleted);
    printBreakdown("all ops, per class:", r.attribution.perClass);
    std::printf("\ntail (>= p%g, %llu ops at >= %.1f us):\n",
                100.0 * r.attribution.tailQuantile,
                (unsigned long long)r.attribution.tailOps,
                double(r.attribution.tailThresholdTicks) /
                    double(kUsec));
    printBreakdown("", r.attribution.tailPerClass);

    std::printf("\nflight recorder (slowest %zu ops):\n",
                attr.flightRecorder().size());
    for (const obs::OpRecord &rec : attr.flightRecorder().slowest()) {
        std::printf("  %-7s issued %12llu  latency %8.1f us:",
                    obs::opClassName(rec.cls),
                    (unsigned long long)rec.issued,
                    double(rec.latency()) / double(kUsec));
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            if (rec.dwell[s] == 0)
                continue;
            std::printf(" %s=%.1fus",
                        obs::stageName(obs::Stage(s)),
                        double(rec.dwell[s]) / double(kUsec));
        }
        std::printf("\n");
    }

    std::printf("\ncheckpoint timeline (%zu checkpoints):\n",
                r.checkpointTimeline.size());
    for (const obs::CheckpointStat &c : r.checkpointTimeline) {
        std::printf("  #%llu %-13s data %7.2f ms, meta %6.2f ms, "
                    "delete %6.2f ms | %llu entries "
                    "(%llu full / %llu partial / %llu merged / "
                    "%llu raw), %llu CoW cmds, %llu remapped, "
                    "%llu copied\n",
                    (unsigned long long)c.seq,
                    obs::ckptTriggerName(c.trigger),
                    double(c.dataDoneTick - c.startTick) /
                        double(kMsec),
                    double(c.metaDoneTick - c.dataDoneTick) /
                        double(kMsec),
                    double(c.endTick - c.metaDoneTick) /
                        double(kMsec),
                    (unsigned long long)c.entries,
                    (unsigned long long)c.fullRecords,
                    (unsigned long long)c.partialRecords,
                    (unsigned long long)c.mergedRecords,
                    (unsigned long long)c.rawRecords,
                    (unsigned long long)c.cowCommands,
                    (unsigned long long)c.remappedPairs,
                    (unsigned long long)c.copiedPairs);
    }

    if (!r.artifacts.empty()) {
        std::printf("\n");
        printArtifactFiles(r);
    }
    return 0;
}

/**
 * `lifetime`: the same write-heavy workload on all five
 * configurations, reporting the flash-wear picture (programs, erases,
 * GC activity, Eq (1) relative lifetime).
 */
int
runLifetime(int argc, char **argv)
{
    const std::vector<std::string> pos =
        positionals(argc, argv, 1, "lifetime [ops]");
    const std::uint64_t ops =
        pos.empty() ? 60'000 : presets::parseCount("ops", pos[0]);

    std::printf("flash lifetime explorer — YCSB-WO zipfian, %llu "
                "write queries per configuration\n\n",
                (unsigned long long)ops);

    Table t({"mode", "programs", "erases", "GC", "redundant MiB",
             "lifetime x"});
    std::map<CheckpointMode, RunResult> results;
    for (CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::IscA,
          CheckpointMode::IscB, CheckpointMode::IscC,
          CheckpointMode::CheckIn}) {
        ExperimentConfig cfg = presets::small();
        cfg.engine.mode = mode;
        cfg.workload = WorkloadSpec::wo();
        cfg.workload.operationCount = ops;
        results.emplace(mode, runExperiment(cfg));
    }
    const double base_erases = std::max<double>(
        1.0, double(results.at(CheckpointMode::Baseline).nandErases));
    for (const auto &[mode, r] : results) {
        const double lifetime =
            r.nandErases > 0 ? base_erases / double(r.nandErases)
                             : 0.0;
        t.addRow({checkpointModeName(mode), Table::num(r.nandPrograms),
                  Table::num(r.nandErases),
                  Table::num(r.gcInvocations),
                  Table::num(double(r.redundantBytes) / double(kMiB),
                             2),
                  r.nandErases > 0 ? Table::num(lifetime, 2)
                                   : std::string("inf")});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nEq (1): lifetime_block = PEC_max * T_op / BEC — "
                "with a fixed workload, relative lifetime is the\n"
                "inverse ratio of block erase counts. Paper: x3.86 "
                "vs baseline, x1.81 vs ISC-C.\n");
    return 0;
}

Trace
loadTrace(const std::string &file)
{
    std::ifstream is(file);
    if (!is)
        throw std::runtime_error("cannot open " + file);
    return Trace::load(is);
}

int
optraceGen(const std::vector<std::string> &a)
{
    const WorkloadSpec spec = presets::parseWorkload(a[0]);
    const std::uint64_t keys = presets::parseCount("keys", a[1], 1);
    const std::uint64_t ops = presets::parseCount("ops", a[2]);
    const Trace t = Trace::generate(spec, keys, ops);
    std::ofstream os(a[3]);
    if (!os)
        throw std::runtime_error("cannot open " + a[3]);
    os << "# checkin trace: workload=" << spec.name
       << " keys=" << keys << " ops=" << ops << "\n";
    t.save(os);
    std::printf("wrote %zu ops to %s\n", t.size(), a[3].c_str());
    return 0;
}

int
optraceInfo(const std::string &file)
{
    const Trace t = loadTrace(file);
    std::map<WorkloadGenerator::OpType, std::uint64_t> counts;
    std::uint64_t max_key = 0;
    for (const auto &op : t.ops()) {
        ++counts[op.type];
        max_key = std::max(max_key, op.key);
    }
    std::printf("%zu ops, max key %llu\n", t.size(),
                (unsigned long long)max_key);
    using OpType = WorkloadGenerator::OpType;
    for (const auto &[label, type] :
         {std::pair{"reads", OpType::Read},
          {"updates", OpType::Update},
          {"rmws", OpType::Rmw},
          {"scans", OpType::Scan},
          {"deletes", OpType::Delete}})
        std::printf("  %-7s %llu\n", label,
                    (unsigned long long)counts[type]);
    return 0;
}

/** Replay a trace against a small-scale stack in @p a[1]'s mode and
 *  print the headline metrics, so one trace compares across modes. */
int
optraceReplay(const std::vector<std::string> &a)
{
    const Trace trace = loadTrace(a[0]);
    const CheckpointMode mode = presets::parseCheckpointMode(a[1]);
    const auto threads = std::uint32_t(
        a.size() > 2 ? presets::parseCount("threads", a[2], 1, kU32Max)
                     : 32);

    std::uint64_t max_key = 0;
    for (const auto &op : trace.ops())
        max_key = std::max(max_key, op.key);

    ExperimentConfig base = presets::small();
    base.engine.mode = mode;
    base.engine.recordCount = max_key + 1;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    NodeStack node(ctx, base);
    node.load([](std::uint64_t) { return 384u; });
    StorageEngine &engine = node.engine();
    engine.start();

    const Tick start = eq.now();
    ClientPool replay(ctx, engine, trace, threads);
    replay.start();
    while (!replay.done()) {
        if (!eq.step()) {
            std::fprintf(stderr, "replay deadlocked\n");
            return 1;
        }
    }
    const Tick span = eq.now() - start;
    engine.verifyAllKeys();
    std::printf("replayed %llu ops as %s in %.3f ms simulated "
                "(%.0f kops/s), %zu checkpoints\n",
                (unsigned long long)replay.stats().opsCompleted,
                checkpointModeName(mode),
                double(span) / double(kMsec),
                double(replay.stats().opsCompleted) * double(kSec) /
                    double(span) / 1e3,
                engine.checkpointDurations().size());
    return 0;
}

/** `optrace`: generate, summarize, or replay an operation trace. */
int
runOptrace(int argc, char **argv)
{
    const std::string cmd = argc > 2 ? argv[2] : "";
    const std::vector<std::string> a(argv + std::min(argc, 3),
                                     argv + argc);
    if (cmd == "gen" && a.size() == 4)
        return optraceGen(a);
    if (cmd == "info" && a.size() == 1)
        return optraceInfo(a[0]);
    if (cmd == "replay" && (a.size() == 2 || a.size() == 3))
        return optraceReplay(a);
    throw UsageError("usage: checkin_cli optrace gen <workload> <keys> "
                     "<ops> <file> | info <file> | replay <file> "
                     "<mode> [threads]");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "trace")
            return runTrace(argc, argv);
        if (cmd == "latency")
            return runLatency(argc, argv);
        if (cmd == "lifetime")
            return runLifetime(argc, argv);
        if (cmd == "optrace")
            return runOptrace(argc, argv);
        if (cmd == "report")
            return runReport(argc, argv);
        return runConfigured(argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "checkin_cli: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "checkin_cli: %s\n", e.what());
        return 1;
    }
}
