/**
 * @file
 * One node stack: NAND -> FTL -> SSD -> journaled engine, built,
 * loaded, baselined, crashed and recovered in one place.
 *
 * The experiment runner, the cluster shards, the crash-oracle
 * replays, the walkthroughs and the engine-level tests all run this
 * sequence, in this order:
 *
 *   sinks -> fault plan -> device -> engine -> load -> quiesce ->
 *   baseline
 *
 *  - sinks: the caller owns the SimContext and installs its tracer,
 *    attribution collector, metrics registry and telemetry sampler
 *    *before* constructing the stack; component constructors capture
 *    them (lane names, probes).
 *  - fault plan: built from ExperimentConfig::faults, seeded from the
 *    context's FaultPlan::kSeedStream and installed on the context
 *    before the device, which wires it into the NAND. A default
 *    (disabled) plan injects nothing.
 *  - device: Ssd with ExperimentConfig::resolvedMappingUnit(), the
 *    paper's mapping-unit pairing (no caller picks a unit itself).
 *  - engine: presets::makeEngine for the configured backend.
 *  - load(): initial values, a quiesce drain so measurement starts on
 *    an idle device, then the post-load baseline (stat snapshot,
 *    checkpoint count, and the tracer/attribution sinks reset) that
 *    every reported delta is relative to.
 *
 * Two crash models cover every recovery claim: a host restart
 * (queued host work and engine RAM are lost, the device keeps power)
 * and a power cut (the same, plus the device's SPOR + firmware
 * rebuild, checked against the FTL invariants).
 */

#ifndef CHECKIN_HARNESS_NODE_STACK_H_
#define CHECKIN_HARNESS_NODE_STACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "engine/storage_engine.h"
#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "harness/experiment.h"

namespace checkin {

class SimContext;
class Ssd;

/** Merged counters of every layer, keyed by prefixed stat name. */
using StatMap = std::map<std::string, std::uint64_t>;

/** Counter @p key of @p stats; 0 when the run never registered it. */
std::uint64_t statOr0(const StatMap &stats, const std::string &key);

/** Checkpoints completed since the load baseline. */
struct CheckpointTally
{
    std::uint64_t count = 0;
    double avgMs = 0.0;
    double maxMs = 0.0;
};

/** How a node goes down in NodeStack::crash(). */
enum class CrashModel : std::uint8_t
{
    /** Queued host work and engine RAM are lost; the device keeps
     *  power and its state. */
    HostRestart,
    /** A host restart plus a device power loss: SPOR, firmware
     *  rebuild of the mapping from OOB, FTL invariant check. */
    PowerCut,
};

/** A device + engine on a caller-owned SimContext. */
class NodeStack
{
  public:
    /** Build fault plan, device and engine (in that order) on @p ctx,
     *  whose sinks must already be installed. */
    NodeStack(SimContext &ctx, const ExperimentConfig &cfg);
    ~NodeStack();

    NodeStack(const NodeStack &) = delete;
    NodeStack &operator=(const NodeStack &) = delete;

    /**
     * Populate the store (@p size_of gives each key's value size),
     * drain the device to idle, and take the post-load baseline.
     */
    void
    load(const std::function<std::uint32_t(std::uint64_t)> &size_of);

    FaultPlan &faults() { return faults_; }
    Ssd &ssd() { return *ssd_; }
    StorageEngine &engine() { return *engine_; }
    const StorageEngine &engine() const { return *engine_; }

    /** Every layer's counters (NAND, FTL, SSD, engine), merged. */
    StatMap stats() const;

    /** stats() minus the load baseline, key by key. */
    StatMap deltasSinceLoad() const;

    /** Count, mean and max duration of checkpoints since load. */
    CheckpointTally checkpointsSinceLoad() const;

    /**
     * Take the node down under @p model. The event queue is cleared
     * (in-flight continuations die with host RAM); under PowerCut the
     * device then loses power and rebuilds. The dead engine stays
     * allocated, for post-mortem reads only, until recover().
     * @return the SPOR rebuild report (all zero for HostRestart).
     */
    Ftl::RebuildReport crash(CrashModel model);

    /** Replace the dead engine by a fresh one over the surviving
     *  device and run its recovery. */
    RecoveryInfo recover();

  private:
    SimContext &ctx_;
    EngineConfig engineCfg_;
    FaultPlan faults_;
    std::unique_ptr<Ssd> ssd_;
    std::unique_ptr<StorageEngine> engine_;

    // Post-load baseline.
    StatMap statsAtLoad_;
    std::size_t checkpointsAtLoad_ = 0;
};

} // namespace checkin

#endif // CHECKIN_HARNESS_NODE_STACK_H_
