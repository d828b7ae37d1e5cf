#include "driver.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "cluster/hash_ring.h"
#include "engine/storage_engine.h"
#include "fault/fault_plan.h"
#include "harness/presets.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/inline_event.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"
#include "workload/client.h"

namespace perfbench {

using namespace checkin;

std::atomic<std::uint64_t> g_allocations{0};

std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

std::uint64_t
allocsNow()
{
    return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t
spillsNow()
{
    return detail::g_inline_event_heap_fallbacks.load(
        std::memory_order_relaxed);
}

double
seconds(std::int64_t ns)
{
    return double(ns) * 1e-9;
}

/** Add @p from's op counts and per-stage dwell into @p into. */
void
addAttribution(obs::AttributionSummary &into,
               const obs::AttributionSummary &from)
{
    into.totalOps += from.totalOps;
    for (std::size_t c = 0; c < obs::kOpClassCount; ++c) {
        into.perClass[c].ops += from.perClass[c].ops;
        for (std::size_t st = 0; st < obs::kStageCount; ++st)
            into.perClass[c].dwell[st] += from.perClass[c].dwell[st];
    }
}

} // namespace

// ----------------------------------------------------------------------
// SpanLog
// ----------------------------------------------------------------------

std::int32_t
SpanLog::begin(const char *name, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.parent = open_;
    s.op = op;
    s.allocStart = allocsNow();
    s.startNs = hostNowNs();
    spans_.push_back(s);
    open_ = std::int32_t(spans_.size() - 1);
    return open_;
}

void
SpanLog::end(std::int32_t id)
{
    Span &s = spans_[std::size_t(id)];
    s.endNs = hostNowNs();
    s.allocEnd = allocsNow();
    open_ = s.parent;
}

void
SpanLog::record(const char *name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.parent = open_;
    s.op = op;
    spans_.push_back(s);
}

void
SpanLog::clear()
{
    spans_.clear();
    open_ = -1;
}

std::map<std::string, SpanTotals>
SpanLog::totals() const
{
    // Child time and allocations per span, then self = own - child.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        child_ns[std::size_t(s.parent)] += s.endNs - s.startNs;
        child_allocs[std::size_t(s.parent)] +=
            s.allocEnd - s.allocStart;
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalNs += s.endNs - s.startNs;
        t.selfNs += s.endNs - s.startNs - child_ns[i];
        t.selfAllocs += s.allocEnd - s.allocStart - child_allocs[i];
    }
    return out;
}

void
SpanLog::writeCsv(std::ostream &os) const
{
    os << "id,name,start_ns,end_ns,parent,op,allocs\n";
    const std::int64_t base = spans_.empty() ? 0 : spans_[0].startNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << i << ',' << s.name << ',' << s.startNs - base << ','
           << s.endNs - base << ',' << s.parent << ',' << s.op << ','
           << s.allocEnd - s.allocStart << '\n';
    }
}

// ----------------------------------------------------------------------
// Single node
// ----------------------------------------------------------------------

double
TrialSim::waf() const
{
    const auto prog = deltas.find("nand.programs");
    const auto payload = deltas.find("engine.journalPayloadBytes");
    if (prog == deltas.end() || payload == deltas.end() ||
        payload->second == 0)
        return 0.0;
    return double(prog->second) * pageBytes / double(payload->second);
}

void
mergeTrial(Trial &into, Trial &&part)
{
    TrialSim &a = into.sim;
    TrialSim &b = part.sim;
    a.attempted += b.attempted;
    a.completed += b.completed;
    a.latencies.insert(a.latencies.end(), b.latencies.begin(),
                       b.latencies.end());
    a.partSamples.insert(a.partSamples.end(), b.partSamples.begin(),
                         b.partSamples.end());
    a.simSpan += b.simSpan;
    a.simOpsPerSec = a.simSpan == 0
                         ? 0.0
                         : double(a.completed) /
                               (double(a.simSpan) / double(kSec));
    a.offered += b.offered;
    a.arrivalSpan += b.arrivalSpan;
    a.queueDelay.merge(b.queueDelay);
    a.checkpointDurations.insert(a.checkpointDurations.end(),
                                 b.checkpointDurations.begin(),
                                 b.checkpointDurations.end());
    for (const auto &[k, v] : b.deltas)
        a.deltas[k] += v;
    a.measuredEvents += b.measuredEvents;
    a.totalEvents += b.totalEvents;
    a.clampedSchedules += b.clampedSchedules;
    a.verifiedKeys += b.verifiedKeys;
    a.expectedKeys += b.expectedKeys;
    a.eraseSkew = std::max(a.eraseSkew, b.eraseSkew);
    addAttribution(a.attribution, b.attribution);
    a.telemetrySamples += b.telemetrySamples;
    a.windows += b.windows;
    a.messages += b.messages;

    TrialHost &h = into.host;
    h.setupS.insert(h.setupS.end(), part.host.setupS.begin(),
                    part.host.setupS.end());
    h.loadS += part.host.loadS;
    h.measuredS += part.host.measuredS;
    h.verifyS += part.host.verifyS;
    h.allocs += part.host.allocs;
    h.spills += part.host.spills;
    for (const auto &[name, t] : part.host.spans) {
        SpanTotals &s = h.spans[name];
        s.count += t.count;
        s.totalNs += t.totalNs;
        s.selfNs += t.selfNs;
        s.selfAllocs += t.selfAllocs;
    }
    into.parts += part.parts;
}

namespace {

/**
 * StorageEngine decorator handed to ClientPool. Untraced it only
 * forwards. Traced, every query call is an "engine.call" span and
 * every completion a "workload.complete" span; the client's callback
 * is parked in a slot table so the wrapper captures 16 trivially
 * copyable bytes and std::function stores it without allocating.
 */
class TimedEngine final : public StorageEngine
{
  public:
    TimedEngine(StorageEngine &inner, SpanLog *log)
        : inner_(inner), log_(log)
    {
    }

    void
    load(const std::function<std::uint32_t(std::uint64_t)> &size_of)
        override
    {
        inner_.load(size_of);
    }
    RecoveryInfo recover() override { return inner_.recover(); }
    void start() override { inner_.start(); }

    void
    get(std::uint64_t key, QueryCb cb) override
    {
        call([&](QueryCb c) { inner_.get(key, std::move(c)); },
             std::move(cb));
    }
    void
    update(std::uint64_t key, std::uint32_t value_bytes,
           QueryCb cb) override
    {
        call(
            [&](QueryCb c) {
                inner_.update(key, value_bytes, std::move(c));
            },
            std::move(cb));
    }
    void
    readModifyWrite(std::uint64_t key, std::uint32_t value_bytes,
                    QueryCb cb) override
    {
        call(
            [&](QueryCb c) {
                inner_.readModifyWrite(key, value_bytes,
                                       std::move(c));
            },
            std::move(cb));
    }
    void
    erase(std::uint64_t key, QueryCb cb) override
    {
        call([&](QueryCb c) { inner_.erase(key, std::move(c)); },
             std::move(cb));
    }
    void
    updateBatch(std::vector<BatchOp> ops, QueryCb cb) override
    {
        call(
            [&](QueryCb c) {
                inner_.updateBatch(std::move(ops), std::move(c));
            },
            std::move(cb));
    }
    void
    scan(std::uint64_t start_key, std::uint32_t count,
         QueryCb cb) override
    {
        call(
            [&](QueryCb c) {
                inner_.scan(start_key, count, std::move(c));
            },
            std::move(cb));
    }

    void
    requestCheckpoint(obs::CkptTrigger reason) override
    {
        inner_.requestCheckpoint(reason);
    }
    bool
    checkpointInProgress() const override
    {
        return inner_.checkpointInProgress();
    }
    const std::vector<Tick> &
    checkpointDurations() const override
    {
        return inner_.checkpointDurations();
    }
    double
    journalFillRate() const override
    {
        return inner_.journalFillRate();
    }
    StatRegistry &stats() override { return inner_.stats(); }
    const StatRegistry &
    stats() const override
    {
        return inner_.stats();
    }
    const EngineConfig &
    config() const override
    {
        return inner_.config();
    }
    std::uint32_t
    committedVersion(std::uint64_t key) const override
    {
        return inner_.committedVersion(key);
    }
    std::uint64_t
    verifyAllKeys() const override
    {
        return inner_.verifyAllKeys();
    }

  private:
    struct Pending
    {
        QueryCb cb;
        std::uint64_t op = 0;
    };

    template <typename Issue>
    void
    call(Issue &&issue, QueryCb cb)
    {
        if (log_ == nullptr) {
            issue(std::move(cb));
            return;
        }
        const std::uint64_t op = ++calls_;
        std::uint32_t slot;
        if (free_.empty()) {
            slot = std::uint32_t(pending_.size());
            pending_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        pending_[slot].cb = std::move(cb);
        pending_[slot].op = op;
        QueryCb wrapped = [this, slot](const QueryResult &r) {
            complete(slot, r);
        };
        const std::int32_t span = log_->begin("engine.call", op);
        issue(std::move(wrapped));
        log_->end(span);
    }

    void
    complete(std::uint32_t slot, const QueryResult &r)
    {
        QueryCb cb = std::move(pending_[slot].cb);
        const std::uint64_t op = pending_[slot].op;
        free_.push_back(slot);
        const std::int32_t span = log_->begin("workload.complete", op);
        cb(r);
        log_->end(span);
    }

    StorageEngine &inner_;
    SpanLog *log_;
    std::uint64_t calls_ = 0;
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> free_;
};

/** Every stat registry of one device + engine, as runExperiment
 *  collects them. */
std::map<std::string, std::uint64_t>
collectStats(const Ssd &ssd, const StorageEngine &engine)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[k, v] : ssd.nand().stats().all())
        out[k] = v;
    for (const auto &[k, v] : ssd.ftl().stats().all())
        out[k] = v;
    for (const auto &[k, v] : ssd.stats().all())
        out[k] = v;
    for (const auto &[k, v] : engine.stats().all())
        out[k] = v;
    return out;
}

void
addDeltas(std::map<std::string, std::uint64_t> &into,
          const std::map<std::string, std::uint64_t> &after,
          const std::map<std::string, std::uint64_t> &before)
{
    for (const auto &[k, v] : after) {
        const auto b = before.find(k);
        into[k] += v - (b == before.end() ? 0 : b->second);
    }
}

/** Opens a span when a log is present. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name) : log_(log)
    {
        if (log_ != nullptr)
            id_ = log_->begin(name);
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::int32_t id_ = -1;
};

} // namespace

Trial
runSingleNode(const ExperimentConfig &cfg, SpanLog *log)
{
    if (cfg.threads == 0)
        throw std::invalid_argument("benchmark needs client threads");
    Trial t;
    TrialSim &sim = t.sim;
    const std::int64_t t_begin = hostNowNs();

    // The same construction order as runExperiment: context, sinks,
    // fault plan, device, engine, load, quiesce, stat baseline, then
    // the client pool.
    SimContext ctx(cfg.seed != 0 ? cfg.seed : cfg.workload.seed,
                   cfg.obs.runName);
    obs::AttributionCollector attr;
    if (cfg.obs.attributionEnabled) {
        attr.setEnabled(true);
        attr.setFlightRecorderK(cfg.obs.attrFlightRecorderK);
        ctx.setAttribution(&attr);
    }
    obs::MetricsRegistry metrics;
    ctx.setMetrics(&metrics);
    obs::TelemetrySampler telemetry(cfg.obs.telemetry);
    if (telemetry.enabled())
        ctx.setTelemetry(&telemetry);
    SimContextScope active(ctx);
    FaultPlan faults(cfg.faults,
                     ctx.deriveSeed(FaultPlan::kSeedStream));
    ctx.setFaults(&faults);

    EventQueue &eq = ctx.events();
    FtlConfig ftl_cfg = cfg.ftl;
    ftl_cfg.mappingUnitBytes = cfg.resolvedMappingUnit();
    Ssd ssd(ctx, cfg.nand, ftl_cfg, cfg.ssd);
    const std::unique_ptr<StorageEngine> inner =
        presets::makeEngine(ctx, ssd, cfg.engine);
    TimedEngine engine(*inner, log);

    const std::int64_t t_load = hostNowNs();
    {
        ScopedSpan span(log, "engine.load");
        WorkloadGenerator sizer(cfg.workload, cfg.engine.recordCount);
        engine.load([&sizer](std::uint64_t key) {
            return sizer.initialSize(key);
        });
        eq.schedule(ssd.quiesceTick(), [] {});
        eq.run();
    }
    t.host.loadS = seconds(hostNowNs() - t_load);
    const auto before = collectStats(ssd, *inner);
    const std::size_t ckpt_before = inner->checkpointDurations().size();
    if (cfg.obs.attributionEnabled)
        attr.clearForMeasurement();

    ClientPool pool(ctx, engine, cfg.workload, cfg.traffic,
                    cfg.threads);
    sim.latencies.reserve(cfg.workload.operationCount);
    pool.setSampler([&sim](Tick issued, Tick done, bool, bool) {
        sim.latencies.push_back(done > issued ? done - issued : 0);
    });
    telemetry.begin(eq);

    const std::uint64_t allocs0 = allocsNow();
    const std::uint64_t spills0 = spillsNow();
    const std::uint64_t events0 = eq.dispatched();
    const std::int64_t t_start = hostNowNs();
    t.host.setupS = {seconds(t_start - t_begin)};
    {
        ScopedSpan span(log, "sim.run");
        engine.start();
        pool.start();
        while (!pool.done()) {
            if (!eq.step())
                throw std::logic_error(
                    "deadlock: event queue drained before the "
                    "workload finished");
        }
        while (engine.checkpointInProgress() && eq.step()) {
        }
    }
    const std::int64_t t_end = hostNowNs();
    t.host.measuredS = seconds(t_end - t_start);
    t.host.allocs = allocsNow() - allocs0;
    t.host.spills = spillsNow() - spills0;
    sim.measuredEvents = eq.dispatched() - events0;
    telemetry.finalize(eq.now());

    {
        ScopedSpan span(log, "engine.verify");
        sim.verifiedKeys = engine.verifyAllKeys();
    }
    t.host.verifyS = seconds(hostNowNs() - t_end);

    sim.partSamples = {sim.latencies.size()};
    sim.client = pool.stats();
    sim.attempted = cfg.traffic.mode == LoopMode::Open
                        ? sim.client.opsOffered
                        : cfg.workload.operationCount;
    sim.completed = sim.client.opsCompleted;
    sim.simOpsPerSec = sim.client.opsPerSec();
    sim.simSpan = sim.client.span();
    sim.offered = sim.client.opsOffered;
    sim.arrivalSpan = sim.client.lastArrival > sim.client.firstIssue
                          ? sim.client.lastArrival - sim.client.firstIssue
                          : 0;
    sim.queueDelay = sim.client.queueDelay;
    const auto &durations = inner->checkpointDurations();
    sim.checkpointDurations.assign(durations.begin() + ckpt_before,
                                   durations.end());
    sim.after = collectStats(ssd, *inner);
    addDeltas(sim.deltas, sim.after, before);
    sim.pageBytes = cfg.nand.pageBytes;
    sim.totalEvents = eq.dispatched();
    sim.clampedSchedules = eq.clampedSchedules();
    sim.expectedKeys = cfg.engine.recordCount;
    sim.eraseSkew =
        ssd.nand().maxEraseCount() - ssd.nand().minEraseCount();
    if (cfg.obs.attributionEnabled)
        sim.attribution = attr.summary(cfg.obs.attrTailQuantile);
    sim.telemetrySamples = telemetry.sampleCount();
    if (log != nullptr)
        t.host.spans = log->totals();
    return t;
}

// ----------------------------------------------------------------------
// Cluster
// ----------------------------------------------------------------------

namespace {

/**
 * Router that records each completion's exact latency (the growth of
 * its latency histogram's exact sum) and, traced, times the response
 * handling as a "workload.complete" span.
 */
class TimedRouter final : public RouterNode
{
  public:
    TimedRouter(std::uint64_t seed, const ClusterConfig &cfg,
                const Placement &placement, SpanLog *log)
        : RouterNode(seed, cfg, placement), log_(log)
    {
        latencies_.reserve(cfg.workload.operationCount);
    }

    std::vector<Tick> &latencies() { return latencies_; }

  protected:
    void
    onMessage(const Message &m) override
    {
        const std::uint64_t sum0 = stats().all.sum();
        const std::int32_t span =
            log_ != nullptr ? log_->begin("workload.complete", m.client)
                            : -1;
        RouterNode::onMessage(m);
        if (log_ != nullptr)
            log_->end(span);
        latencies_.push_back(stats().all.sum() - sum0);
    }

  private:
    SpanLog *log_;
    std::vector<Tick> latencies_;
};

} // namespace

Trial
runClusterNodes(const ClusterConfig &cfg, SpanLog *log,
                SpanLog *router_log)
{
    if (cfg.shardCount == 0 || cfg.lookahead() == 0)
        throw std::invalid_argument("bad cluster config");
    Trial t;
    TrialSim &sim = t.sim;
    const std::int64_t t_begin = hostNowNs();

    // Placement, router and shards exactly as runCluster builds them.
    const HashRing ring(cfg.shardCount, cfg.vnodesPerShard);
    const std::uint64_t total = cfg.totalRecords();
    Placement placement;
    placement.shardOf.resize(total);
    placement.localKey.resize(total);
    std::vector<std::vector<std::uint64_t>> shard_keys(cfg.shardCount);
    for (std::uint64_t g = 0; g < total; ++g) {
        const std::uint32_t s = ring.shardOf(g);
        placement.shardOf[g] = s;
        placement.localKey[g] = shard_keys[s].size();
        shard_keys[s].push_back(g);
    }
    ExperimentConfig shard_cfg = cfg.shard;
    if (cfg.coordination != CkptCoordination::Independent)
        shard_cfg.engine.checkpointInterval = 0;

    const Rng root(cfg.seed);
    auto router = std::make_unique<TimedRouter>(
        root.childSeed(0), cfg, placement, router_log);
    std::vector<std::unique_ptr<ShardNode>> shards;
    shards.reserve(cfg.shardCount);
    for (std::uint32_t s = 0; s < cfg.shardCount; ++s) {
        ExperimentConfig sc = shard_cfg;
        sc.engine.recordCount = shard_keys[s].size();
        shards.push_back(std::make_unique<ShardNode>(
            s, root.childSeed(1 + s), sc, std::move(shard_keys[s]),
            cfg.workload, cfg.responseLatency,
            cfg.attributionEnabled));
    }
    std::vector<ClusterNode *> nodes;
    nodes.reserve(1 + shards.size());
    nodes.push_back(router.get());
    for (auto &s : shards)
        nodes.push_back(s.get());

    const std::int64_t t_load = hostNowNs();
    {
        ScopedSpan span(log, "cluster.load");
        parallelFor(shards.size(), cfg.syncThreads,
                    [&](std::size_t s) { shards[s]->buildAndLoad(); });
    }
    t.host.loadS = seconds(hostNowNs() - t_load);

    Tick t0 = 0;
    std::vector<std::map<std::string, std::uint64_t>> before;
    std::vector<std::size_t> ckpt_before;
    std::uint64_t events0 = router->ctx().events().dispatched();
    for (auto &s : shards) {
        t0 = std::max(t0, s->ctx().now());
        before.push_back(s->engine().stats().all());
        ckpt_before.push_back(
            s->engine().checkpointDurations().size());
        events0 += s->ctx().events().dispatched();
    }
    t0 += cfg.lookahead();

    const std::uint64_t allocs0 = allocsNow();
    const std::uint64_t spills0 = spillsNow();
    const std::int64_t t_start = hostNowNs();
    t.host.setupS = {seconds(t_start - t_begin)};
    SyncStats sync;
    {
        ScopedSpan span(log, "sim.run");
        router->start(t0);
        // The done predicate runs once per barrier on this thread:
        // the host time between two calls is one window.
        std::int64_t last = hostNowNs();
        sync = runWindows(nodes, cfg.lookahead(), cfg.syncThreads,
                          [&] {
                              if (log != nullptr) {
                                  const std::int64_t now = hostNowNs();
                                  log->record("cluster.window", last,
                                              now);
                                  last = now;
                              }
                              return router->done();
                          });
        for (auto &s : shards)
            s->drainCheckpoint();
    }
    const std::int64_t t_end = hostNowNs();
    t.host.measuredS = seconds(t_end - t_start);
    t.host.allocs = allocsNow() - allocs0;
    t.host.spills = spillsNow() - spills0;

    {
        ScopedSpan span(log, "engine.verify");
        for (auto &s : shards) {
            SimContextScope scope(s->ctx());
            sim.verifiedKeys += s->engine().verifyAllKeys();
        }
    }
    t.host.verifyS = seconds(hostNowNs() - t_end);

    const RouterStats &rs = router->stats();
    sim.latencies = std::move(router->latencies());
    sim.partSamples = {sim.latencies.size()};
    sim.attempted = cfg.traffic.mode == LoopMode::Open
                        ? rs.opsOffered
                        : cfg.workload.operationCount;
    sim.completed = rs.opsCompleted;
    sim.simSpan = rs.lastCompletion > rs.firstIssue
                      ? rs.lastCompletion - rs.firstIssue
                      : 0;
    if (sim.simSpan > 0) // the same expression as ClusterResult's
        sim.simOpsPerSec = double(rs.opsCompleted) /
                           (double(sim.simSpan) / double(kSec));
    sim.offered = rs.opsOffered;
    sim.arrivalSpan = rs.lastArrival > rs.firstIssue
                          ? rs.lastArrival - rs.firstIssue
                          : 0;
    sim.queueDelay = rs.queueDelay;
    sim.pageBytes = cfg.shard.nand.pageBytes;
    sim.expectedKeys = total;
    sim.windows = sync.windows;
    sim.messages = sync.messages;
    sim.totalEvents = router->ctx().events().dispatched();
    sim.clampedSchedules = router->ctx().events().clampedSchedules();
    const double tail_q = cfg.shard.obs.attrTailQuantile;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        ShardNode &s = *shards[i];
        const ShardSummary sum = s.summary(tail_q);
        sim.totalEvents += sum.events;
        sim.clampedSchedules += s.ctx().events().clampedSchedules();
        addDeltas(sim.deltas, s.engine().stats().all(), before[i]);
        sim.deltas["nand.reads"] += sum.nandReads;
        sim.deltas["nand.programs"] += sum.nandPrograms;
        sim.deltas["nand.erases"] += sum.nandErases;
        const auto &d = s.engine().checkpointDurations();
        sim.checkpointDurations.insert(sim.checkpointDurations.end(),
                                       d.begin() + ckpt_before[i],
                                       d.end());
        sim.telemetrySamples += s.telemetry().sampleCount();
        sim.attribution.enabled = sum.attribution.enabled;
        addAttribution(sim.attribution, sum.attribution);
    }
    sim.measuredEvents = sim.totalEvents - events0;
    if (log != nullptr)
        t.host.spans = log->totals();
    if (router_log != nullptr) {
        for (const auto &[name, tot] : router_log->totals())
            t.host.spans[name] = tot;
    }
    return t;
}

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

const std::vector<WorkloadDef> &
workloads()
{
    // Held-out seeds are never used while tuning the benchmark or a
    // change; a gain claimed on the default seed must also hold there.
    static const std::vector<WorkloadDef> defs = {
        {"ycsb-a", 42, 1009, false, 400'000, 8},
        {"lsm-gc", 42, 2003, false, 200'000, 2},
        {"cluster-mmpp", 42, 3001, true, 200'000, 8},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::uint64_t
partSeed(std::uint64_t seed, std::uint32_t part)
{
    return part == 0 ? seed : Rng(seed).childSeed(part);
}

ExperimentConfig
singleNodeConfig(const WorkloadDef &w, std::uint64_t seed)
{
    const std::string name = w.name;
    ExperimentConfig c;
    if (name == "ycsb-a") {
        // The paper's headline setup: Check-In with its 200 ms /
        // 6 MiB checkpoint trigger; the 4000-key store fits the
        // device DRAM cache, so GC never runs.
        c = presets::paper();
        c.engine.backend = EngineBackend::CheckIn;
    } else if (name == "lsm-gc") {
        // LSM sorted runs + WAL span many times the DRAM cache of
        // the 128 MiB device, so GC and NAND reads run throughout.
        c = presets::small();
        c.engine.backend = EngineBackend::Lsm;
    } else {
        throw std::invalid_argument(name + " is not a single-node "
                                           "workload");
    }
    c.workload = WorkloadSpec::a();
    c.workload.operationCount = w.ops;
    c.workload.seed = seed;
    c.threads = 32;
    return c;
}

ClusterConfig
clusterConfig(const WorkloadDef &w, std::uint64_t seed,
              std::uint32_t part)
{
    ClusterConfig c = presets::cluster();
    c.shardCount = 4;
    c.clients = 32;
    c.coordination = CkptCoordination::Independent;
    // One synchronizer thread: results are byte-identical for any
    // count, and with two workers on a 4-core shared host the time
    // went to thread hand-offs at the window barriers (half the
    // throughput of one) and swung by 22 % between runs.
    c.syncThreads = 1;
    c.workload = WorkloadSpec::a();
    c.workload.operationCount = w.ops;
    c.workload.seed = seed;
    // The root seed fixes the MMPP burst schedule (and the shard
    // streams). It is pinned per part rather than drawn from the
    // workload seed: the tail of a bursty open loop is set by its
    // longest bursts, and letting every seed redraw them would swamp
    // any change under test. The workload seed draws the operations.
    c.seed = partSeed(kArrivalSeed, part);
    // Open-loop MMPP: base 180 k ops/s for a mean 4 ms, bursts of 1.6x
    // for a mean 1 ms. That is 202 k ops/s long run, 73 % of the 275 k
    // ops/s the cluster completes closed loop with 32 clients, while
    // each burst offers 288 k ops/s, above that capacity.
    c.traffic.mode = LoopMode::Open;
    c.traffic.process = ArrivalProcess::Mmpp;
    c.traffic.offeredOpsPerSec = 180'000.0;
    c.traffic.burstMultiplier = 1.6;
    c.traffic.meanBaseDwell = 4 * kMsec;
    c.traffic.meanBurstDwell = 1 * kMsec;
    c.shard.obs.telemetry.enabled = true;
    return c;
}

} // namespace perfbench
