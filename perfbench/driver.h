/**
 * @file
 * Benchmark driver: builds the simulated stack from the public
 * harness pieces, owns the EventQueue::step() loop, and times the
 * calls into each layer from outside the program.
 *
 * Host time is measured with std::chrono::steady_clock spans recorded
 * by the benchmark's own code: around the StorageEngine calls (a
 * timing decorator handed to ClientPool), around each query
 * completion (the decorator wraps every QueryCb), around the step
 * loop, load and verification, and around the cluster's load and
 * synchronizer windows. Nothing inside the simulator is edited, so
 * every simulated-side number equals what runExperiment / runCluster
 * produce for the same config (tests/neutrality_test.cc).
 */

#ifndef CHECKIN_PERFBENCH_DRIVER_H_
#define CHECKIN_PERFBENCH_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness/experiment.h"

namespace perfbench {

using checkin::Tick;

/** Monotonic host clock, nanoseconds. */
std::int64_t hostNowNs();

/**
 * Heap allocations made so far by the process. The benchmark binary
 * counts them in its replacement operator new (alloc_count.cc);
 * binaries without it read 0.
 */
extern std::atomic<std::uint64_t> g_allocations;

/** One host-time span: a timed call into a layer. */
struct Span
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the same log; -1 at the root. */
    std::int32_t parent = -1;
    /** Operation id (engine call index; 0 when not per-op). */
    std::uint64_t op = 0;
    std::uint64_t allocStart = 0;
    std::uint64_t allocEnd = 0;
};

/** Per-name rollup of a span log. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    /** Span time not covered by child spans. */
    std::int64_t selfNs = 0;
    /** Allocations not made inside child spans. */
    std::uint64_t selfAllocs = 0;
};

/**
 * In-memory span log of one thread. Spans nest: begin() parents the
 * new span under the innermost open one. Written out only when the
 * run ends (writeCsv).
 */
class SpanLog
{
  public:
    std::int32_t begin(const char *name, std::uint64_t op = 0);
    void end(std::int32_t id);
    /** Record an already-closed span under the innermost open one. */
    void record(const char *name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t op = 0);
    void clear();
    std::map<std::string, SpanTotals> totals() const;
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::int32_t open_ = -1;
};

/** Simulated-side outcome of one trial; identical for a fixed seed. */
struct TrialSim
{
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    /** Exact client latency of every completed op, completion order
     *  (from arrival in open loop). */
    std::vector<Tick> latencies;
    /** Samples each merged part contributed to latencies, in order. */
    std::vector<std::size_t> partSamples;
    /** Client-side histograms and progress (single node). */
    checkin::ClientStats client;
    double simOpsPerSec = 0.0;
    /** First issue to last completion, ticks. */
    Tick simSpan = 0;
    /** Open loop: arrivals generated and first issue to last
     *  arrival, ticks (offered rate = offered / arrivalSpan). */
    std::uint64_t offered = 0;
    Tick arrivalSpan = 0;
    checkin::LatencyHistogram queueDelay;
    /** Post-load checkpoint / flush durations. */
    std::vector<Tick> checkpointDurations;
    /** Post-load deltas of every stat registry (nand, ftl, ssd,
     *  engine; summed over shards in a cluster). */
    std::map<std::string, std::uint64_t> deltas;
    /** End-of-run absolute stat values (single node). */
    std::map<std::string, std::uint64_t> after;
    std::uint32_t pageBytes = 0;
    /** Events dispatched in the measured phase / whole run. */
    std::uint64_t measuredEvents = 0;
    std::uint64_t totalEvents = 0;
    std::uint64_t clampedSchedules = 0;
    std::uint64_t verifiedKeys = 0;
    std::uint64_t expectedKeys = 0;
    std::uint64_t eraseSkew = 0;
    checkin::obs::AttributionSummary attribution;
    std::uint64_t telemetrySamples = 0;
    /** Cluster synchronizer counters (0 on a single node). */
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    /** Waf as RunResult defines it: NAND bytes programmed per
     *  journal payload byte. */
    double waf() const;
};

/** Host-side outcome of one trial. */
struct TrialHost
{
    /** Per part: build the stack + load + quiesce. */
    std::vector<double> setupS;
    double loadS = 0.0;     //!< engine / cluster load alone
    double measuredS = 0.0; //!< start() through the checkpoint drain
    double verifyS = 0.0;
    /** Allocations / InlineFunction heap spills, measured phase. */
    std::uint64_t allocs = 0;
    std::uint64_t spills = 0;
    /** Span rollups (traced trials only). */
    std::map<std::string, SpanTotals> spans;
};

struct Trial
{
    TrialSim sim;
    TrialHost host;
    /** Independent runs merged into this trial. */
    std::uint32_t parts = 1;
};

/**
 * Merge @p part, a run on another seed, into @p into: op counts,
 * stat deltas, events, host times and span rollups add up, latency
 * samples and checkpoint durations pool, and the simulated
 * throughput becomes pooled ops over pooled simulated time.
 */
void mergeTrial(Trial &into, Trial &&part);

/**
 * Run one single-node trial of @p cfg. With @p log the engine calls,
 * completions, step loop, load and verification are recorded as
 * spans; without it the decorator forwards calls untouched.
 */
Trial runSingleNode(const checkin::ExperimentConfig &cfg,
                    SpanLog *log);

/**
 * Run one cluster trial of @p cfg from the public ShardNode /
 * RouterNode / runWindows pieces, timing setup (placement, build and
 * parallel load) apart from the windowed run. With @p log the load,
 * every synchronizer window and verification are recorded on the
 * calling thread, and router completions on @p router_log.
 */
Trial runClusterNodes(const checkin::ClusterConfig &cfg, SpanLog *log,
                      SpanLog *router_log);

/** A benchmark workload and its pinned seeds. */
struct WorkloadDef
{
    const char *name;
    /** Seed used when none is given. */
    std::uint64_t defaultSeed;
    /** Seed kept out of tuning, for validating claims. */
    std::uint64_t heldOutSeed;
    bool cluster;
    /** Measured operations of one run. */
    std::uint64_t ops;
    /** Runs per trial, each on its own seed derived from the
     *  workload seed (partSeed); their results pool. */
    std::uint32_t parts;
};

const std::vector<WorkloadDef> &workloads();
/** nullptr when @p name is not a workload. */
const WorkloadDef *findWorkload(const std::string &name);

/** Seed of run @p part of a trial; part 0 runs on @p seed itself. */
std::uint64_t partSeed(std::uint64_t seed, std::uint32_t part);

/** Single-node config of workload @p w (not a cluster workload). */
checkin::ExperimentConfig singleNodeConfig(const WorkloadDef &w,
                                           std::uint64_t seed);
/** Root seed behind the cluster's arrival schedule. */
inline constexpr std::uint64_t kArrivalSeed = 42;

/** Cluster config of workload @p w for run @p part of a trial:
 *  operations from @p seed, arrivals from partSeed(kArrivalSeed,
 *  part). */
checkin::ClusterConfig clusterConfig(const WorkloadDef &w,
                                     std::uint64_t seed,
                                     std::uint32_t part);

/** Client latency limit behind slo_miss_frac (the CLI's default
 *  tenant SLO). */
inline constexpr Tick kSloLatency = 2 * checkin::kMsec;

} // namespace perfbench

#endif // CHECKIN_PERFBENCH_DRIVER_H_
