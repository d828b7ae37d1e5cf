/**
 * @file
 * Cluster simulation tests: the determinism contract (byte-identical
 * artifacts for any synchronizer thread count, and under concurrent
 * outer runs), the router/shard accounting invariants, the three
 * checkpoint coordination policies, and the cluster.json artifact.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/hash_ring.h"

namespace checkin {
namespace {

/** Preset shrunk so a full cluster run stays test-sized. */
ClusterConfig
testConfig()
{
    ClusterConfig cfg = presets::cluster();
    cfg.shard.engine.recordCount = 1000;
    cfg.shard.engine.checkpointInterval = 2 * kMsec;
    cfg.workload.operationCount = 4000;
    return cfg;
}

std::string
runJson(ClusterConfig cfg)
{
    const ClusterResult r = runCluster(cfg);
    return clusterResultJson(cfg, r);
}

TEST(HashRing, CoversAllShardsDeterministically)
{
    const HashRing ring(8, 64);
    ASSERT_EQ(ring.size(), 8u * 64u);
    std::vector<std::uint64_t> perShard(8, 0);
    for (std::uint64_t k = 0; k < 8000; ++k) {
        const std::uint32_t s = ring.shardOf(k);
        ASSERT_LT(s, 8u);
        ++perShard[s];
        EXPECT_EQ(s, ring.shardOf(k)); // stable
    }
    for (std::uint32_t s = 0; s < 8; ++s)
        EXPECT_GT(perShard[s], 0u) << "shard " << s << " owns no key";
}

TEST(Cluster, ByteIdenticalAcrossSyncThreads)
{
    ClusterConfig cfg = testConfig();
    ASSERT_GE(cfg.shardCount, 4u);

    cfg.syncThreads = 1;
    const std::string serial = runJson(cfg);
    ASSERT_FALSE(serial.empty());

    cfg.syncThreads = 4;
    EXPECT_EQ(serial, runJson(cfg))
        << "4 synchronizer threads changed the result";

    // Byte-identical also when whole cluster runs execute
    // concurrently (sweep-style outer parallelism): every run is
    // isolated in its own SimContexts.
    std::vector<std::string> outer(4);
    {
        std::vector<std::thread> workers;
        workers.reserve(outer.size());
        for (std::size_t i = 0; i < outer.size(); ++i) {
            workers.emplace_back([&cfg, &outer, i] {
                ClusterConfig mine = cfg;
                mine.syncThreads = 1 + unsigned(i % 2);
                outer[i] = runJson(mine);
            });
        }
        for (std::thread &t : workers)
            t.join();
    }
    for (const std::string &json : outer)
        EXPECT_EQ(serial, json);
}

TEST(Cluster, RoutingInvariantsHold)
{
    ClusterConfig cfg = testConfig();
    const ClusterResult r = runCluster(cfg);

    EXPECT_EQ(r.router.opsIssued, cfg.workload.operationCount);
    EXPECT_EQ(r.router.opsCompleted, cfg.workload.operationCount);
    EXPECT_EQ(r.router.all.count(), r.router.opsCompleted);

    ASSERT_EQ(r.shards.size(), cfg.shardCount);
    ASSERT_EQ(r.router.routedOps.size(), cfg.shardCount);
    ASSERT_EQ(r.router.routedBytes.size(), cfg.shardCount);

    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t keys = 0;
    for (std::uint32_t s = 0; s < cfg.shardCount; ++s) {
        EXPECT_EQ(r.shards[s].ops, r.router.routedOps[s])
            << "shard " << s;
        EXPECT_EQ(r.shards[s].bytes, r.router.routedBytes[s])
            << "shard " << s;
        EXPECT_GT(r.shards[s].keys, 0u);
        ops += r.shards[s].ops;
        bytes += r.shards[s].bytes;
        keys += r.shards[s].keys;
    }
    EXPECT_EQ(ops, r.router.opsCompleted);
    EXPECT_EQ(bytes, r.router.totalBytes);
    EXPECT_EQ(keys, cfg.totalRecords());
    EXPECT_EQ(r.verifiedKeys, cfg.totalRecords());
    EXPECT_GT(r.sync.windows, 0u);
    EXPECT_GE(r.sync.messages, 2 * r.router.opsCompleted);
    EXPECT_GT(r.simSpan, 0u);
}

TEST(Cluster, CoordinationPoliciesCheckpointEveryShard)
{
    for (const CkptCoordination policy :
         {CkptCoordination::Independent,
          CkptCoordination::Synchronized,
          CkptCoordination::Staggered}) {
        ClusterConfig cfg = testConfig();
        cfg.coordination = policy;
        const ClusterResult r = runCluster(cfg);
        SCOPED_TRACE(ckptCoordinationName(policy));

        std::uint64_t checkpoints = 0;
        for (const ShardSummary &s : r.shards) {
            EXPECT_GT(s.checkpoints, 0u) << "shard " << s.shard;
            checkpoints += s.checkpoints;
        }
        if (policy == CkptCoordination::Independent) {
            EXPECT_EQ(r.router.ckptControls, 0u);
        } else {
            EXPECT_GT(r.router.ckptControls, 0u);
            // Every control message reaches a shard; shards may add
            // safety-net checkpoints (journal pressure) on top.
            EXPECT_GE(checkpoints, r.router.ckptControls / 2);
        }
        EXPECT_EQ(r.router.opsCompleted,
                  cfg.workload.operationCount);
    }
}

TEST(Cluster, AttributionReportsCheckpointStall)
{
    ClusterConfig cfg = testConfig();
    cfg.attributionEnabled = true;
    cfg.coordination = CkptCoordination::Synchronized;
    const ClusterResult r = runCluster(cfg);
    std::uint64_t attrOps = 0;
    for (const ShardSummary &s : r.shards) {
        EXPECT_TRUE(s.attribution.enabled);
        attrOps += s.attribution.totalOps;
    }
    EXPECT_EQ(attrOps, r.router.opsCompleted);
}

/** count, exact sum, p50, p99 and p99.9 of @p h. */
std::vector<std::uint64_t>
pins(const LatencyHistogram &h)
{
    return {h.count(), h.sum(), h.quantile(0.5), h.quantile(0.99),
            h.quantile(0.999)};
}

using Pins = std::vector<std::uint64_t>;

/** testConfig() at 2000 ops; @p open: MMPP arrivals at 150 k ops/s
 *  over 8 clients, so arrivals queue for a slot. */
ClusterConfig
goldenConfig(bool open)
{
    ClusterConfig cfg = testConfig();
    cfg.workload.operationCount = 2000;
    if (open) {
        cfg.clients = 8;
        cfg.traffic.mode = LoopMode::Open;
        cfg.traffic.process = ArrivalProcess::Mmpp;
        cfg.traffic.offeredOpsPerSec = 150'000.0;
    }
    return cfg;
}

/**
 * Golden pins of the router's client-visible outcome, recorded while
 * the router still ran its own copy of the client loop; with
 * ClientPool as the driver no event, RNG draw or tick may change.
 */
TEST(Cluster, RouterGoldenRuns)
{
    const ClusterResult c = runCluster(goldenConfig(false));
    EXPECT_EQ(pins(c.router.all),
              (Pins{2000, 101374595, 44543, 204799, 253951}));
    EXPECT_EQ((Pins{c.router.reads.count(), c.router.writes.count(),
                    c.router.queueDelay.count(), c.router.opsIssued,
                    c.router.firstIssue, c.router.lastCompletion,
                    c.totalEvents}),
              (Pins{986, 1014, 0, 2000, 14600390, 17796025, 8251}));

    const ClusterResult o = runCluster(goldenConfig(true));
    EXPECT_EQ(pins(o.router.all),
              (Pins{2000, 110023557, 46591, 119807, 135167}));
    EXPECT_EQ(pins(o.router.queueDelay),
              (Pins{2000, 20222249, 1919, 56831, 75775}));
    EXPECT_EQ((Pins{o.router.reads.count(), o.router.writes.count(),
                    o.router.opsIssued, o.router.opsOffered,
                    o.router.lastArrival, o.router.lastCompletion,
                    o.totalEvents}),
              (Pins{986, 1014, 2000, 2000, 27836842, 27880252, 10654}));
}

/** docs/TRAFFIC.md: tenants are a single-node feature; the router
 *  draws no tenant pick, so a tenant table changes nothing. */
TEST(Cluster, OpenLoopIgnoresTenants)
{
    ClusterConfig cfg = goldenConfig(true);
    const std::string plain = runJson(cfg);
    cfg.traffic.tenants = {TenantSpec{"gold", 0.25, kMsec},
                           TenantSpec{"bronze", 0.75, 10 * kMsec}};
    const ClusterResult r = runCluster(cfg);
    EXPECT_EQ(clusterResultJson(cfg, r), plain);
    EXPECT_TRUE(r.router.tenants.empty());
}

/** Zero clients is an error, as zero threads is for runExperiment. */
TEST(Cluster, RejectsZeroClients)
{
    ClusterConfig cfg = testConfig();
    cfg.clients = 0;
    EXPECT_THROW(runCluster(cfg), std::invalid_argument);
}

TEST(Cluster, WritesClusterJsonArtifact)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "checkin_cluster_artifacts";
    std::filesystem::remove_all(dir);

    ClusterConfig cfg = testConfig();
    cfg.workload.operationCount = 1000;
    cfg.artifactDir = dir.string();
    cfg.runName = "cluster-test";
    const ClusterResult r = runCluster(cfg);

    ASSERT_FALSE(r.artifacts.empty());
    const std::filesystem::path file =
        std::filesystem::path(r.artifacts.dir) / "cluster.json";
    ASSERT_TRUE(std::filesystem::exists(file));

    std::ifstream in(file);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), clusterResultJson(cfg, r));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace checkin
