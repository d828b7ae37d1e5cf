#include "cluster/router.h"

#include <algorithm>
#include <cassert>

namespace checkin {

namespace {

/** @p t without tenants and flash crowd: single-node features
 *  (docs/TRAFFIC.md) the router's clients do not draw. */
TrafficSpec
routerTraffic(TrafficSpec t)
{
    t.tenants.clear();
    t.flashCrowdDuration = 0;
    return t;
}

} // namespace

RouterNode::RouterNode(std::uint64_t seed, const ClusterConfig &cfg,
                       const Placement &placement)
    : ClusterNode(seed, "router"),
      cfg_(cfg),
      placement_(placement),
      pool_(ctx_,
            [this](const WorkloadGenerator::Op &op, std::uint32_t c) {
                routeOp(op, c);
            },
            &stats_, cfg.totalRecords(), cfg.workload,
            routerTraffic(cfg.traffic), cfg.clients)
{
    stats_.routedOps.assign(cfg.shardCount, 0);
    stats_.routedBytes.assign(cfg.shardCount, 0);
}

void
RouterNode::start(Tick t0)
{
    assert(t0 >= ctx_.now());
    ctx_.events().schedule(t0, [this] { pool_.start(); });

    if (cfg_.coordination == CkptCoordination::Independent)
        return;
    Tick interval = cfg_.coordinationInterval > 0
                        ? cfg_.coordinationInterval
                        : cfg_.shard.engine.checkpointInterval;
    if (interval == 0)
        return; // coordination disabled along with the timers
    if (cfg_.coordination == CkptCoordination::Staggered) {
        // Rotate through the shards so each still checkpoints once
        // per interval, but at most one stalls at a time.
        interval = std::max<Tick>(1, interval / cfg_.shardCount);
    }
    coordPeriod_ = interval;
    ctx_.events().schedule(t0 + coordPeriod_,
                           [this] { onCoordinatorTimer(); });
}

void
RouterNode::onCoordinatorTimer()
{
    Message m;
    m.kind = Message::Kind::CkptControl;
    m.deliverTick = ctx_.now() + cfg_.requestLatency;
    if (cfg_.coordination == CkptCoordination::Synchronized) {
        for (std::uint32_t s = 0; s < cfg_.shardCount; ++s) {
            m.dst = 1 + s;
            send(m);
            ++stats_.ckptControls;
        }
    } else {
        m.dst = 1 + nextCkptShard_;
        nextCkptShard_ = (nextCkptShard_ + 1) % cfg_.shardCount;
        send(m);
        ++stats_.ckptControls;
    }
    ctx_.events().scheduleAfter(coordPeriod_,
                                [this] { onCoordinatorTimer(); });
}

void
RouterNode::routeOp(const WorkloadGenerator::Op &op,
                    std::uint32_t client)
{
    ++stats_.opsIssued;
    const std::uint32_t shard = placement_.shardOf[op.key];

    Message m;
    m.kind = Message::Kind::Request;
    m.op = op.type;
    m.dst = 1 + shard;
    m.deliverTick = ctx_.now() + cfg_.requestLatency;
    m.key = placement_.localKey[op.key];
    m.client = client;
    m.valueBytes = op.valueBytes;
    m.scanLength = op.scanLength;
    send(m);

    ++stats_.routedOps[shard];
    if (op.type == WorkloadGenerator::OpType::Update ||
        op.type == WorkloadGenerator::OpType::Rmw) {
        stats_.routedBytes[shard] += op.valueBytes;
        stats_.totalBytes += op.valueBytes;
    }
}

void
RouterNode::onMessage(const Message &m)
{
    assert(m.kind == Message::Kind::Response &&
           "the router only receives responses");
    QueryResult res;
    res.done = ctx_.now();
    res.duringCheckpoint = m.duringCheckpoint;
    res.found = m.found;
    res.scanned = m.scanned;
    pool_.complete(m.client, res);
}

} // namespace checkin
