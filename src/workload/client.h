/**
 * @file
 * The load driver: a pool of N logical client threads (service
 * slots) that takes operations from a source and hands them to a
 * sink, in either loop mode of a TrafficSpec (workload/traffic.h).
 *
 * Sources: a WorkloadGenerator over a WorkloadSpec, or a recorded
 * Trace (replayed in trace order). Sinks: a StorageEngine, or the
 * cluster router's Sink callback, which places each op on a shard
 * and reports the response back through complete().
 *
 * Closed loop (default): each thread keeps exactly one query
 * outstanding — the paper's "number of threads" axis.
 *
 * Open loop: operations arrive on the TrafficSpec's arrival process,
 * independent of completions, and wait in an unbounded FIFO for one
 * of the N service slots. Latency is measured from *arrival*, so
 * client-side queue delay lands in the latency tail (and in
 * Stage::QueueDelay of the attribution timeline), with offered vs
 * achieved throughput and per-tenant SLO violations accounted in
 * ClientStats.
 */

#ifndef CHECKIN_WORKLOAD_CLIENT_H_
#define CHECKIN_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "engine/storage_engine.h"
#include "sim/event_queue.h"
#include "sim/histogram.h"
#include "sim/sim_context.h"
#include "workload/trace.h"
#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace checkin {

/** Per-tenant progress and SLO accounting (open loop). */
struct TenantStats
{
    std::string name;
    Tick sloLatency = 0;
    LatencyHistogram latency;
    std::uint64_t opsCompleted = 0;
    std::uint64_t sloViolations = 0;

    bool operator==(const TenantStats &) const = default;
};

/** Latency and progress metrics of a client pool run. */
struct ClientStats
{
    LatencyHistogram all;
    LatencyHistogram reads;
    LatencyHistogram writes; //!< updates + RMWs
    LatencyHistogram duringCheckpoint;
    LatencyHistogram readsDuringCheckpoint;
    LatencyHistogram writesDuringCheckpoint;
    LatencyHistogram outsideCheckpoint;
    /** Open loop: arrival → issue wait for a free service slot. */
    LatencyHistogram queueDelay;
    std::uint64_t opsCompleted = 0;
    /** Open loop: arrivals generated (≥ opsCompleted mid-run). */
    std::uint64_t opsOffered = 0;
    /** Open loop: completions over any tenant's SLO latency. */
    std::uint64_t sloViolations = 0;
    Tick firstIssue = 0;
    Tick lastCompletion = 0;
    /** Open loop: last arrival tick (offered-rate denominator). */
    Tick lastArrival = 0;
    /** Open loop: one entry per TrafficSpec tenant. */
    std::vector<TenantStats> tenants;

    bool operator==(const ClientStats &) const = default;

    /** Wall-clock span of the run in ticks. */
    Tick
    span() const
    {
        return lastCompletion > firstIssue
                   ? lastCompletion - firstIssue
                   : 0;
    }

    /** Throughput in operations per simulated second. */
    double
    opsPerSec() const
    {
        return span() == 0
                   ? 0.0
                   : double(opsCompleted) * double(kSec) /
                         double(span());
    }

    /**
     * Offered arrival rate in ops per simulated second (open loop;
     * 0 in closed loop). Completions trail arrivals, so this is ≥
     * opsPerSec() by construction — the gap is the backlog the
     * engine could not absorb.
     */
    double
    offeredOpsPerSec() const
    {
        const Tick span = lastArrival > firstIssue
                              ? lastArrival - firstIssue
                              : 0;
        return span == 0 ? 0.0
                         : double(opsOffered) * double(kSec) /
                               double(span);
    }
};

/** Latency-attribution class of an op type. */
obs::OpClass opAttrClass(WorkloadGenerator::OpType type);

/** Issue @p op on @p engine; @p cb fires when it completes. The one
 *  place an op type turns into an engine call. */
void issueOp(StorageEngine &engine, const WorkloadGenerator::Op &op,
             StorageEngine::QueryCb cb);

/** Drives an op source into an engine or a Sink per a TrafficSpec's
 *  loop mode. */
class ClientPool
{
  public:
    /** Where ops go: takes @p op on service slot @p slot, whose
     *  outcome comes back through complete(slot, ...). */
    using Sink = std::function<void(const WorkloadGenerator::Op &op,
                                    std::uint32_t slot)>;

    /** Closed-loop pool (historical interface). */
    ClientPool(SimContext &ctx, StorageEngine &engine,
               const WorkloadSpec &spec, std::uint32_t threads);

    /** Loop mode, arrival process, and tenants per @p traffic;
     *  @p threads is the thread count (closed) or service-slot
     *  count (open). */
    ClientPool(SimContext &ctx, StorageEngine &engine,
               const WorkloadSpec &spec, const TrafficSpec &traffic,
               std::uint32_t threads);

    /** Closed-loop replay of @p trace, in trace order; the trace
     *  must outlive the pool. */
    ClientPool(SimContext &ctx, StorageEngine &engine,
               const Trace &trace, std::uint32_t threads);

    /** Ops over @p key_count keys into @p sink (the cluster
     *  router), accounted into @p stats (null: the pool's own),
     *  which must outlive the pool. */
    ClientPool(SimContext &ctx, Sink sink, ClientStats *stats,
               std::uint64_t key_count, const WorkloadSpec &spec,
               const TrafficSpec &traffic, std::uint32_t slots);

    /** Launch all threads' first operations / the arrival clock. */
    void start();

    /** True once every operation completed. */
    bool done() const { return stats_.opsCompleted >= opTarget_; }

    const ClientStats &stats() const { return stats_; }

    /** Account the op in flight on @p slot as done with @p res and
     *  refill the slot. */
    void complete(std::uint32_t slot, const QueryResult &res);

    /** Per-operation sample hook (timelines, custom collectors).
     *  In open loop @p issued is the arrival tick. */
    using Sampler = std::function<void(Tick issued, Tick done,
                                       bool during_checkpoint,
                                       bool is_read)>;
    void setSampler(Sampler s) { sampler_ = std::move(s); }

    /** Completions, arrivals and probes hold `this`. */
    ClientPool(const ClientPool &) = delete;

  private:
    /**
     * An arrival waiting for a service slot. The op is stored
     * flattened so an entry stays 32 bytes: the FIFO's deque then
     * allocates one block per 16 arrivals.
     */
    struct PendingOp
    {
        Tick arrival = 0;
        std::uint64_t key = 0;
        std::uint32_t valueBytes = 0;
        std::uint32_t scanLength = 0;
        obs::OpToken tok = obs::kNoOpToken;
        std::uint16_t tenant = 0;
        WorkloadGenerator::OpType type = WorkloadGenerator::OpType::Read;
    };
    static_assert(sizeof(PendingOp) == 32);

    /** The op a closed-loop thread or open-loop slot has in the
     *  sink. */
    struct InFlight
    {
        WorkloadGenerator::OpType type = WorkloadGenerator::OpType::Read;
        /** Issue tick (closed loop) or arrival tick (open loop). */
        Tick since = 0;
        obs::OpToken tok = obs::kNoOpToken;
        std::uint32_t tenant = 0;
    };

    /** Setup shared by both sources (@p gen empty: a trace). */
    ClientPool(SimContext &ctx, Sink sink, ClientStats *stats,
               const TrafficSpec &traffic, std::uint64_t op_target,
               std::uint32_t threads,
               std::optional<WorkloadGenerator> gen);

    /** The sink that issues each op on @p engine. */
    Sink engineSink(StorageEngine &engine);

    WorkloadGenerator::Op nextOp(Tick now);
    void issueNext(std::uint32_t thread);
    void record(WorkloadGenerator::OpType type, std::uint32_t thread,
                Tick issued, const QueryResult &res);

    void scheduleNextArrival();
    void onArrival();
    void dispatch(std::uint32_t slot);

    EventQueue &eq_;
    Sink sink_;
    std::optional<ClientStats> ownStats_;
    /** *ownStats_, or the storage a Sink's owner handed in. */
    ClientStats &stats_;
    TrafficSpec traffic_;
    std::uint64_t opTarget_;
    std::uint64_t opsIssued_ = 0;
    std::uint32_t threads_;
    /** Per thread / service slot; completions look their op up here. */
    std::vector<InFlight> inFlight_;
    Sampler sampler_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;

    // Op source: a generator, or a trace with its read cursor.
    std::optional<WorkloadGenerator> gen_;
    const std::vector<WorkloadGenerator::Op> *trace_ = nullptr;
    std::uint64_t traceNext_ = 0;

    // Open-loop state.
    std::optional<ArrivalEngine> arrivals_;
    /** Flash-crowd key picker: the workload's mix over the `latest`
     *  distribution, on its own deterministic stream. */
    std::unique_ptr<WorkloadGenerator> flashGen_;
    std::deque<PendingOp> queue_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace checkin

#endif // CHECKIN_WORKLOAD_CLIENT_H_
