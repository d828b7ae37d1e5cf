/**
 * @file
 * Named experiment presets shared by benches, tests, and examples.
 *
 * Every consumer of a "default" configuration goes through one of
 * these builders so scale changes happen in exactly one place:
 *
 *  - presets::small(): fast-simulation scale (128 MiB device) with
 *    frequent checkpoints; the default for tests and examples.
 *  - presets::paper(): the figure-reproduction scale the fig*
 *    benches run — small() with the paper's checkpoint cadence.
 *  - presets::faulty(): small() plus an enabled fault plan (read
 *    bit errors, program/erase fails, wear skew) tuned so the ECC
 *    and front-end retry budgets absorb most injected faults.
 *
 * The strict name and count parsers below are the only ones the
 * command-line front end (examples/checkin_cli) uses.
 */

#ifndef CHECKIN_HARNESS_PRESETS_H_
#define CHECKIN_HARNESS_PRESETS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "engine/storage_engine.h"
#include "harness/experiment.h"

namespace checkin {
class SimContext;
class Ssd;
enum class CkptCoordination : std::uint8_t; // cluster/cluster_config.h
} // namespace checkin

namespace checkin::presets {

/** Small configuration sized for fast simulation. */
ExperimentConfig small();

/** Figure-reproduction scale used by the fig* benches. */
ExperimentConfig paper();

/** small() with deterministic fault injection enabled. */
ExperimentConfig faulty();

/**
 * Build the StorageEngine backend selected by @p cfg.backend.
 * Every consumer that is not backend-specific constructs its engine
 * through here.
 */
std::unique_ptr<StorageEngine>
makeEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg);

// Name parsers of the experiment CLI and the trace replayer. Each
// accepts exactly the names listed beside it and throws
// std::invalid_argument naming the expected values on anything else.

/** checkin | lsm */
EngineBackend parseEngineBackend(const std::string &name);
/** baseline | isc-a | isc-b | isc-c | checkin */
CheckpointMode parseCheckpointMode(const std::string &name);
/** a | b | c | d | e | f | wo (the WorkloadSpec presets) */
WorkloadSpec parseWorkload(const std::string &name);
/** poisson | mmpp | diurnal */
ArrivalProcess parseArrivalProcess(const std::string &name);
/** independent | synchronized | staggered */
CkptCoordination parseCoordination(const std::string &name);
/** fixed | adaptive */
CheckpointPolicyKind parseCheckpointPolicy(const std::string &name);

/**
 * Parse @p text as a decimal count in [lo, hi]: ASCII digits only (no
 * sign, blank, or base prefix) and no overflow. Throws
 * std::invalid_argument naming @p what otherwise.
 */
std::uint64_t
parseCount(const std::string &what, const std::string &text,
           std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

} // namespace checkin::presets

#endif // CHECKIN_HARNESS_PRESETS_H_
