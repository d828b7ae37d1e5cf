/**
 * @file
 * Parallel experiment-sweep runner.
 *
 * Every paper figure is a grid of independent experiment points
 * (threads x mode x interval x ...). A single simulation is
 * single-threaded discrete-event simulation and two points share no
 * state (see sim/sim_context.h), so the sweep is embarrassingly
 * parallel: runSweep executes the points on a bounded worker pool and
 * returns the outcomes in point order, bit-identical to a serial run.
 *
 *  - Declarative grids: SweepGrid crosses axes of labeled config
 *    edits into a stable row-major point list (last axis fastest).
 *  - Bounded concurrency: --jobs N / CHECKIN_JOBS=N, defaulting to
 *    std::thread::hardware_concurrency().
 *  - Deterministic seeding: each point with cfg.seed == 0 gets a seed
 *    derived from (baseSeed, point index), so results do not depend
 *    on scheduling order or worker count.
 *  - Failure capture: an exception inside one point is recorded in
 *    its outcome instead of tearing down the whole sweep.
 */

#ifndef CHECKIN_HARNESS_SWEEP_H_
#define CHECKIN_HARNESS_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace checkin {

/** One experiment point of a sweep. */
struct SweepPoint
{
    std::string label;
    ExperimentConfig config;
};

/** Result (or captured failure) of one sweep point. */
struct SweepOutcome
{
    std::string label;
    RunResult result;
    /** False when the point threw; @ref error holds the message. */
    bool ok = false;
    std::string error;
};

/** Execution knobs of runSweep. */
struct SweepOptions
{
    /**
     * Worker count. 0 resolves through CHECKIN_JOBS, then
     * hardware_concurrency (capped at the point count; at least 1).
     */
    unsigned jobs = 0;

    /** Mixed with the point index into per-point context seeds for
     *  points that do not pin ExperimentConfig::seed themselves. */
    std::uint64_t baseSeed = 1;
};

/** Resolve a worker count: @p requested, else $CHECKIN_JOBS, else
 *  std::thread::hardware_concurrency(), never less than 1. Throws
 *  std::invalid_argument when $CHECKIN_JOBS is not a count in
 *  [1, 1024]. */
unsigned resolveJobs(unsigned requested);

/**
 * Parse a bench command line: "--jobs N", "--jobs=N" or "-jN", plus
 * "--quick" when @p quick is given (the benches with a CI-sized run
 * pass it). Any other argument, a count outside [1, 1024] or a
 * malformed $CHECKIN_JOBS prints the reason and exits with status 2.
 */
SweepOptions sweepOptionsFromArgs(int argc, char **argv,
                                  bool *quick = nullptr);

/**
 * Run every point, at most opts.jobs at a time, and return outcomes
 * indexed exactly like @p points. Points are claimed in order but may
 * finish in any order; outcome order (and, with per-point seeds,
 * every result bit) is independent of the worker count.
 */
std::vector<SweepOutcome>
runSweep(const std::vector<SweepPoint> &points,
         const SweepOptions &opts = {});

/**
 * Declarative cartesian sweep grid.
 *
 * Each axis is a list of labeled edits of an ExperimentConfig;
 * points() crosses all axes over the base config, applying edits in
 * axis order and joining the axis labels with '-'. Order is row-major
 * with the *last* axis fastest, matching the nested-loop order
 *
 *     for (a0 : axis0) for (a1 : axis1) ...
 */
class SweepGrid
{
  public:
    using Edit = std::function<void(ExperimentConfig &)>;

    struct Value
    {
        std::string label;
        Edit apply;
    };

    explicit SweepGrid(ExperimentConfig base)
        : base_(std::move(base))
    {
    }

    SweepGrid &
    axis(std::vector<Value> values)
    {
        axes_.push_back(std::move(values));
        return *this;
    }

    /** Number of points the grid expands to. */
    std::size_t size() const;

    std::vector<SweepPoint> points() const;

  private:
    ExperimentConfig base_;
    std::vector<std::vector<Value>> axes_;
};

} // namespace checkin

#endif // CHECKIN_HARNESS_SWEEP_H_
