#include "workload/client.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/attribution.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace checkin {

namespace {

const char *
opTraceName(WorkloadGenerator::OpType type)
{
    switch (type) {
      case WorkloadGenerator::OpType::Read: return "op.read";
      case WorkloadGenerator::OpType::Update: return "op.update";
      case WorkloadGenerator::OpType::Rmw: return "op.rmw";
      case WorkloadGenerator::OpType::Scan: return "op.scan";
      case WorkloadGenerator::OpType::Delete: return "op.delete";
    }
    return "op.unknown";
}

} // namespace

obs::OpClass
opAttrClass(WorkloadGenerator::OpType type)
{
    switch (type) {
      case WorkloadGenerator::OpType::Read: return obs::OpClass::Read;
      case WorkloadGenerator::OpType::Update:
        return obs::OpClass::Update;
      case WorkloadGenerator::OpType::Rmw: return obs::OpClass::Rmw;
      case WorkloadGenerator::OpType::Scan: return obs::OpClass::Scan;
      case WorkloadGenerator::OpType::Delete:
        return obs::OpClass::Delete;
    }
    return obs::OpClass::Read;
}

void
issueOp(StorageEngine &engine, const WorkloadGenerator::Op &op,
        StorageEngine::QueryCb cb)
{
    switch (op.type) {
      case WorkloadGenerator::OpType::Read:
        engine.get(op.key, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Update:
        engine.update(op.key, op.valueBytes, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Rmw:
        engine.readModifyWrite(op.key, op.valueBytes, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Scan:
        engine.scan(op.key, op.scanLength, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Delete:
        engine.erase(op.key, std::move(cb));
        break;
    }
}

ClientPool::ClientPool(SimContext &ctx, StorageEngine &engine,
                       const WorkloadSpec &spec,
                       std::uint32_t threads)
    : ClientPool(ctx, engine, spec, TrafficSpec{}, threads)
{
}

ClientPool::ClientPool(SimContext &ctx, StorageEngine &engine,
                       const WorkloadSpec &spec,
                       const TrafficSpec &traffic,
                       std::uint32_t threads)
    : ClientPool(ctx, engineSink(engine), nullptr,
                 engine.config().recordCount, spec, traffic, threads)
{
}

ClientPool::ClientPool(SimContext &ctx, StorageEngine &engine,
                       const Trace &trace, std::uint32_t threads)
    : ClientPool(ctx, engineSink(engine), nullptr, TrafficSpec{},
                 trace.size(), threads, std::nullopt)
{
    trace_ = &trace.ops();
}

ClientPool::ClientPool(SimContext &ctx, Sink sink, ClientStats *stats,
                       std::uint64_t key_count,
                       const WorkloadSpec &spec,
                       const TrafficSpec &traffic,
                       std::uint32_t slots)
    : ClientPool(ctx, std::move(sink), stats, traffic,
                 spec.operationCount, slots,
                 WorkloadGenerator(spec, key_count))
{
    if (traffic_.mode == LoopMode::Open && traffic_.hasFlashCrowd()) {
        WorkloadSpec crowd = spec;
        crowd.distribution = Distribution::Latest;
        crowd.seed = ctx.deriveSeed(TrafficSpec::kFlashKeyStream);
        flashGen_ = std::make_unique<WorkloadGenerator>(crowd, key_count);
    }
}

ClientPool::ClientPool(SimContext &ctx, Sink sink, ClientStats *stats,
                       const TrafficSpec &traffic,
                       std::uint64_t op_target, std::uint32_t threads,
                       std::optional<WorkloadGenerator> gen)
    : eq_(ctx.events()),
      sink_(std::move(sink)),
      stats_(stats != nullptr ? *stats : ownStats_.emplace()),
      traffic_(traffic),
      opTarget_(op_target),
      threads_(threads),
      inFlight_(threads),
      gen_(std::move(gen))
{
    if (threads_ == 0 && opTarget_ > 0)
        throw std::invalid_argument(
            "client pool needs at least one thread or service slot");
    if (traffic_.tenants.size() > 65536)
        throw std::invalid_argument("at most 65536 tenants");
    for (std::uint32_t t = 0; t < threads_; ++t) {
        obs::nameLane(obs::Cat::Workload, t,
                      "client" + std::to_string(t));
    }
    if (traffic_.mode == LoopMode::Open) {
        arrivals_.emplace(
            traffic_,
            ctx.deriveSeed(TrafficSpec::kArrivalStream));
        for (const TenantSpec &t : traffic_.tenants) {
            TenantStats ts;
            ts.name = t.name;
            ts.sloLatency = t.sloLatency;
            stats_.tenants.push_back(std::move(ts));
        }
    }
    telem_ = ctx.telemetry();
    if (telem_ != nullptr && telem_->enabled()) {
        telem_->addGauge("client.queueDepth", [this] {
            return std::uint64_t(queue_.size());
        });
        telem_->addGauge("client.freeSlots", [this] {
            return std::uint64_t(freeSlots_.size());
        });
        telem_->addCounter("client.opsCompleted", [this] {
            return stats_.opsCompleted;
        });
        telem_->addCounter("client.opsOffered", [this] {
            return stats_.opsOffered;
        });
        telem_->addCounter("client.sloViolations", [this] {
            return stats_.sloViolations;
        });
        // Per-tenant achieved load + SLO burn rate (windowed deltas
        // of these counters are rates over the sampling window).
        for (std::size_t i = 0; i < stats_.tenants.size(); ++i) {
            const std::string base =
                "tenant." + stats_.tenants[i].name + ".";
            telem_->addCounter(base + "opsCompleted", [this, i] {
                return stats_.tenants[i].opsCompleted;
            });
            telem_->addCounter(base + "sloViolations", [this, i] {
                return stats_.tenants[i].sloViolations;
            });
        }
    }
}

ClientPool::Sink
ClientPool::engineSink(StorageEngine &engine)
{
    // The completion captures only {this, slot}: small enough for
    // std::function's inline buffer, so issuing never allocates.
    return [this, &engine](const WorkloadGenerator::Op &op,
                           std::uint32_t slot) {
        issueOp(engine, op, [this, slot](const QueryResult &res) {
            complete(slot, res);
        });
    };
}

void
ClientPool::start()
{
    stats_.firstIssue = eq_.now();
    if (traffic_.mode == LoopMode::Open) {
        freeSlots_.reserve(threads_);
        // Popping from the back hands the lowest slot ids out first.
        for (std::uint32_t t = threads_; t > 0; --t)
            freeSlots_.push_back(t - 1);
        scheduleNextArrival();
        return;
    }
    for (std::uint32_t t = 0; t < threads_ && opsIssued_ < opTarget_;
         ++t) {
        issueNext(t);
    }
}

WorkloadGenerator::Op
ClientPool::nextOp(Tick now)
{
    if (trace_ != nullptr)
        return (*trace_)[traceNext_++];
    // The key picker switches to the `latest` distribution inside a
    // flash-crowd window: the surge hammers recently-updated keys.
    if (flashGen_ != nullptr && arrivals_->inFlashCrowd(now))
        return flashGen_->next();
    return gen_->next();
}

void
ClientPool::complete(std::uint32_t slot, const QueryResult &res)
{
    const InFlight f = inFlight_[slot];
    // Finish the timeline exactly when the client observes
    // completion, so the stage dwells sum to the client-visible
    // latency (from arrival in open loop: queue delay included).
    obs::attrFinishOp(f.tok, res.done);
    record(f.type, slot, f.since, res);
    if (traffic_.mode == LoopMode::Closed) {
        issueNext(slot);
        return;
    }
    if (f.tenant < stats_.tenants.size()) {
        TenantStats &ts = stats_.tenants[f.tenant];
        const Tick lat = res.done > f.since ? res.done - f.since : 0;
        ts.latency.record(lat);
        ++ts.opsCompleted;
        const bool violated = ts.sloLatency > 0 && lat > ts.sloLatency;
        if (violated) {
            ++ts.sloViolations;
            ++stats_.sloViolations;
        }
        if (telem_ != nullptr && ts.sloLatency > 0)
            telem_->noteSloResult(res.done, violated);
    }
    if (!queue_.empty())
        dispatch(slot);
    else
        freeSlots_.push_back(slot);
}

// ----------------------------------------------------------------------
// Closed loop
// ----------------------------------------------------------------------

void
ClientPool::issueNext(std::uint32_t thread)
{
    if (opsIssued_ >= opTarget_)
        return;
    ++opsIssued_;
    const Tick issued = eq_.now();
    const WorkloadGenerator::Op op = nextOp(issued);
    const obs::OpToken tok =
        obs::attrBeginOp(opAttrClass(op.type), issued);
    inFlight_[thread] = InFlight{op.type, issued, tok, 0};
    // The op's timeline is the ambient current op for the sink's
    // entry call (the engine captures the token into its task).
    obs::AttrOpScope attr_scope(tok);
    sink_(op, thread);
}

// ----------------------------------------------------------------------
// Open loop
// ----------------------------------------------------------------------

void
ClientPool::scheduleNextArrival()
{
    if (stats_.opsOffered >= opTarget_)
        return;
    const Tick gap = arrivals_->nextInterarrival(eq_.now());
    eq_.scheduleAfter(gap, [this] { onArrival(); });
}

void
ClientPool::onArrival()
{
    const Tick arrival = eq_.now();
    ++stats_.opsOffered;
    stats_.lastArrival = arrival;
    const WorkloadGenerator::Op op = nextOp(arrival);
    const auto tenant = std::uint16_t(arrivals_->pickTenant());
    // The timeline starts at arrival: queue wait is part of the
    // latency an open-loop client observes.
    queue_.push_back({arrival, op.key, op.valueBytes, op.scanLength,
                      obs::attrBeginOp(opAttrClass(op.type), arrival),
                      tenant, op.type});
    scheduleNextArrival();
    if (!freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        dispatch(slot);
    }
}

void
ClientPool::dispatch(std::uint32_t slot)
{
    assert(!queue_.empty());
    const PendingOp p = queue_.front();
    queue_.pop_front();
    const Tick issued = eq_.now();
    stats_.queueDelay.record(issued > p.arrival ? issued - p.arrival
                                                : 0);
    obs::attrMark(p.tok, obs::Stage::QueueDelay, issued);
    inFlight_[slot] = InFlight{p.type, p.arrival, p.tok, p.tenant};
    obs::AttrOpScope attr_scope(p.tok);
    sink_({p.type, p.key, p.valueBytes, p.scanLength}, slot);
}

void
ClientPool::record(WorkloadGenerator::OpType type,
                   std::uint32_t thread, Tick issued,
                   const QueryResult &res)
{
    const Tick latency = res.done > issued ? res.done - issued : 0;
    stats_.all.record(latency);
    const bool is_read = type == WorkloadGenerator::OpType::Read ||
                         type == WorkloadGenerator::OpType::Scan;
    obs::span(obs::Cat::Workload, thread, opTraceName(type), issued,
              res.done,
              {{"duringCkpt", res.duringCheckpoint ? 1u : 0u}});
    if (sampler_)
        sampler_(issued, res.done, res.duringCheckpoint, is_read);
    if (is_read)
        stats_.reads.record(latency);
    else
        stats_.writes.record(latency);
    if (res.duringCheckpoint) {
        stats_.duringCheckpoint.record(latency);
        if (is_read)
            stats_.readsDuringCheckpoint.record(latency);
        else
            stats_.writesDuringCheckpoint.record(latency);
    } else {
        stats_.outsideCheckpoint.record(latency);
    }
    ++stats_.opsCompleted;
    stats_.lastCompletion = std::max(stats_.lastCompletion, res.done);
}

} // namespace checkin
