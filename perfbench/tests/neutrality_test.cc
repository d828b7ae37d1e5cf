/**
 * @file
 * Model neutrality of the benchmark driver.
 *
 * The driver builds the stack itself, wraps the engine in a timing
 * decorator, wraps every completion callback, and owns the step loop.
 * None of that may change what is simulated: for each benchmark
 * workload its RunResult-equivalent numbers must equal runExperiment's
 * (runCluster's for the cluster) exactly, traced or not.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "driver.h"

namespace {

using namespace perfbench;
using checkin::LatencyHistogram;

const double kQuantiles[] = {0.5, 0.9, 0.99, 0.999, 0.9999};

/** sim.dispatchedEvents from a run's metrics.csv artifact. */
std::uint64_t
dispatchedEvents(const checkin::RunResult &r)
{
    std::ifstream in(r.artifacts.dir + "/metrics.csv");
    std::string line;
    const std::string key = "sim.dispatchedEvents,";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0)
            return std::stoull(line.substr(key.size()));
    }
    ADD_FAILURE() << "no sim.dispatchedEvents in " << r.artifacts.dir;
    return 0;
}

void
expectSameHistogram(const LatencyHistogram &a, const LatencyHistogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.max(), b.max());
    for (const double q : kQuantiles)
        EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
}

LatencyHistogram
histogramOf(const std::vector<Tick> &samples)
{
    LatencyHistogram h;
    for (const Tick s : samples)
        h.record(s);
    return h;
}

/** Everything simulated must match between two driver trials. */
void
expectSameSim(const TrialSim &a, const TrialSim &b)
{
    EXPECT_EQ(a.attempted, b.attempted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.latencies, b.latencies);
    EXPECT_EQ(a.simOpsPerSec, b.simOpsPerSec);
    EXPECT_EQ(a.checkpointDurations, b.checkpointDurations);
    EXPECT_EQ(a.deltas, b.deltas);
    EXPECT_EQ(a.measuredEvents, b.measuredEvents);
    EXPECT_EQ(a.totalEvents, b.totalEvents);
    EXPECT_EQ(a.verifiedKeys, b.verifiedKeys);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.telemetrySamples, b.telemetrySamples);
}

void
checkSingleNode(const std::string &name)
{
    const WorkloadDef *w = findWorkload(name);
    ASSERT_NE(w, nullptr);
    checkin::ExperimentConfig cfg = singleNodeConfig(*w, w->defaultSeed);

    checkin::ExperimentConfig ref_cfg = cfg;
    ref_cfg.obs.artifactDir = "neutrality_artifacts";
    ref_cfg.obs.runName = name;
    const checkin::RunResult r = checkin::runExperiment(ref_cfg);

    const Trial plain = runSingleNode(cfg, nullptr);
    const TrialSim &s = plain.sim;
    EXPECT_EQ(s.simOpsPerSec, r.throughputOps);
    expectSameHistogram(s.client.all, r.client.all);
    expectSameHistogram(histogramOf(s.latencies), r.client.all);
    EXPECT_EQ(s.waf(), r.waf);
    EXPECT_GT(s.waf(), 0.0);
    EXPECT_EQ(s.checkpointDurations.size(), r.checkpoints);
    EXPECT_GT(r.checkpoints, 0u);
    EXPECT_EQ(s.totalEvents, dispatchedEvents(r));
    for (const auto &[k, v] : s.after) {
        const auto it = r.raw.find(k);
        ASSERT_NE(it, r.raw.end()) << k;
        EXPECT_EQ(v, it->second) << k;
    }
    EXPECT_EQ(s.verifiedKeys, cfg.engine.recordCount);
    EXPECT_EQ(s.clampedSchedules, 0u);

    // Tracing adds spans and latency attribution; the simulated
    // results must not move.
    checkin::ExperimentConfig traced_cfg = cfg;
    traced_cfg.obs.attributionEnabled = true;
    SpanLog log;
    const Trial traced = runSingleNode(traced_cfg, &log);
    expectSameSim(s, traced.sim);
    EXPECT_TRUE(traced.sim.attribution.enabled);
    EXPECT_EQ(traced.sim.attribution.totalOps, s.completed);
    const auto spans = log.totals();
    ASSERT_TRUE(spans.count("engine.call"));
    ASSERT_TRUE(spans.count("workload.complete"));
    EXPECT_EQ(spans.at("engine.call").count, s.completed);
    EXPECT_EQ(spans.at("workload.complete").count, s.completed);
    EXPECT_EQ(spans.at("sim.run").count, 1u);
}

TEST(Neutrality, YcsbAMatchesRunExperiment) { checkSingleNode("ycsb-a"); }

TEST(Neutrality, LsmGcMatchesRunExperiment) { checkSingleNode("lsm-gc"); }

TEST(Neutrality, ClusterMatchesRunCluster)
{
    const WorkloadDef *w = findWorkload("cluster-mmpp");
    ASSERT_NE(w, nullptr);
    const checkin::ClusterConfig cfg = clusterConfig(*w, w->defaultSeed, 0);
    const checkin::ClusterResult r = checkin::runCluster(cfg);

    const Trial plain = runClusterNodes(cfg, nullptr, nullptr);
    const TrialSim &s = plain.sim;
    EXPECT_EQ(s.simOpsPerSec, r.throughputOps);
    EXPECT_EQ(s.completed, r.router.opsCompleted);
    EXPECT_EQ(s.attempted, r.router.opsOffered);
    expectSameHistogram(histogramOf(s.latencies), r.router.all);
    EXPECT_EQ(s.totalEvents, r.totalEvents);
    EXPECT_EQ(s.verifiedKeys, r.verifiedKeys);
    EXPECT_EQ(s.verifiedKeys, cfg.totalRecords());
    EXPECT_EQ(s.windows, r.sync.windows);
    EXPECT_EQ(s.messages, r.sync.messages);
    EXPECT_EQ(s.telemetrySamples, r.telemetry.samples);
    std::uint64_t programs = 0;
    std::uint64_t checkpoints = 0;
    for (const checkin::ShardSummary &sh : r.shards) {
        programs += sh.nandPrograms;
        checkpoints += sh.checkpoints;
    }
    EXPECT_EQ(s.deltas.at("nand.programs"), programs);
    EXPECT_EQ(s.checkpointDurations.size(), checkpoints);

    checkin::ClusterConfig traced_cfg = cfg;
    traced_cfg.attributionEnabled = true;
    SpanLog log;
    SpanLog router_log;
    const Trial traced = runClusterNodes(traced_cfg, &log, &router_log);
    expectSameSim(s, traced.sim);
    EXPECT_EQ(router_log.totals().at("workload.complete").count,
              s.completed);
    EXPECT_EQ(log.totals().at("cluster.window").count, s.windows + 1);
}

} // namespace
