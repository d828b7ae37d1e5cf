/**
 * @file
 * Cluster scaling bench: simulation throughput (DES events per
 * wall-clock second) and client-visible tail latency (p99.9) versus
 * shard count, for each cross-shard checkpoint coordination policy.
 *
 * The interesting comparison is the policy column at fixed shard
 * count: Synchronized stalls every shard at once (worst cluster-wide
 * p99.9 spike, but aligned), Staggered spreads the stalls so at most
 * one shard pauses at a time, Independent lets the timers drift.
 *
 * Writes BENCH_cluster.json into $CHECKIN_BENCH_DIR (default: the
 * working directory). `--quick` shrinks the per-run workload for CI;
 * the shard-count axis {1, 4, 16} is kept in both modes. `--jobs N`
 * sets the synchronizer thread count (default: CHECKIN_JOBS, else
 * the core count); results are identical for any N.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/json.h"

using namespace checkin;

namespace {

constexpr std::uint32_t kShardCounts[] = {1, 4, 16};
constexpr CkptCoordination kPolicies[] = {
    CkptCoordination::Independent, CkptCoordination::Synchronized,
    CkptCoordination::Staggered};

struct BenchRun
{
    std::string label;
    std::uint32_t shards;
    const char *policy;
    ClusterResult result;
    double wallSeconds;
};

void
writeReport(const std::vector<BenchRun> &runs)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("bench", "cluster");
    w.key("runs").beginArray();
    for (const BenchRun &r : runs) {
        std::uint64_t checkpoints = 0;
        for (const ShardSummary &s : r.result.shards)
            checkpoints += s.checkpoints;
        w.newline().beginObject();
        w.kv("label", r.label);
        w.key("result").beginObject();
        w.kv("checkpoints", checkpoints);
        w.kv("coordination", r.policy);
        w.kv("eventsPerSec",
             r.wallSeconds > 0.0
                 ? double(r.result.totalEvents) / r.wallSeconds
                 : 0.0);
        w.kv("meanUs",
             r.result.router.all.mean() / double(kUsec));
        w.kv("opsCompleted", r.result.router.opsCompleted);
        w.kv("p50Us", double(r.result.router.all.quantile(0.5)) /
                          double(kUsec));
        w.kv("p999Us", double(r.result.router.all.quantile(0.999)) /
                           double(kUsec));
        w.kv("shardCount", std::uint64_t(r.shards));
        w.kv("simSpanTicks", r.result.simSpan);
        w.kv("throughputOps", r.result.throughputOps);
        w.kv("totalEvents", r.result.totalEvents);
        w.kv("wallSeconds", r.wallSeconds);
        w.endObject();
        w.endObject();
    }
    w.newline().endArray();
    w.endObject();
    os << "\n";

    const char *dir = std::getenv("CHECKIN_BENCH_DIR");
    if (dir != nullptr) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    const std::string path =
        std::string(dir ? dir : ".") + "/BENCH_cluster.json";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        std::exit(1);
    }
    f << os.str();
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const SweepOptions opts = sweepOptionsFromArgs(argc, argv, &quick);

    std::printf("cluster scaling — events/sec and p99.9 vs shard "
                "count vs checkpoint coordination%s\n",
                quick ? " (quick)" : "");

    std::vector<BenchRun> runs;
    Table table({"shards", "policy", "ops", "events/sec", "p50 us",
                 "p99.9 us", "ckpts", "wall s"});
    for (const std::uint32_t shards : kShardCounts) {
        for (const CkptCoordination policy : kPolicies) {
            ClusterConfig cfg = presets::cluster();
            cfg.shardCount = shards;
            cfg.coordination = policy;
            cfg.syncThreads = opts.jobs; // 0: CHECKIN_JOBS/cores
            cfg.shard.engine.recordCount = quick ? 500 : 2000;
            // The cluster-total op count is fixed across shard
            // counts so rows compare the same client workload.
            cfg.workload.operationCount = quick ? 2000 : 16000;
            // Quick runs span only a few simulated ms; shorten the
            // checkpoint cadence so every policy still checkpoints.
            if (quick)
                cfg.shard.engine.checkpointInterval = 1 * kMsec;

            const auto t0 = std::chrono::steady_clock::now();
            ClusterResult r = runCluster(cfg);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            const char *name = ckptCoordinationName(policy);
            std::uint64_t checkpoints = 0;
            for (const ShardSummary &s : r.shards)
                checkpoints += s.checkpoints;
            table.addRow(
                {Table::num(std::uint64_t(shards)), name,
                 Table::num(r.router.opsCompleted),
                 Table::num(secs > 0.0
                                ? double(r.totalEvents) / secs
                                : 0.0,
                            0),
                 Table::num(double(r.router.all.quantile(0.5)) /
                                double(kUsec),
                            1),
                 Table::num(double(r.router.all.quantile(0.999)) /
                                double(kUsec),
                            1),
                 Table::num(checkpoints), Table::num(secs, 2)});
            runs.push_back(BenchRun{std::string("shards") +
                                        std::to_string(shards) +
                                        "/" + name,
                                    shards, name, std::move(r),
                                    secs});
        }
    }

    std::printf("\n%s\n", table.render().c_str());
    writeReport(runs);
    return 0;
}
