#include "harness/sweep.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/presets.h"
#include "sim/rng.h"

namespace checkin {

namespace {

/** Largest worker count a flag or CHECKIN_JOBS may ask for. */
constexpr std::uint64_t kMaxJobs = 1024;

unsigned
parseJobs(const std::string &what, const std::string &text)
{
    return unsigned(presets::parseCount(what, text, 1, kMaxJobs));
}

} // namespace

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    if (const char *env = std::getenv("CHECKIN_JOBS"))
        return parseJobs("CHECKIN_JOBS", env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepOptions
sweepOptionsFromArgs(int argc, char **argv, bool *quick)
{
    SweepOptions opts;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--quick" && quick != nullptr) {
                *quick = true;
            } else if (arg == "--jobs") {
                if (i + 1 == argc)
                    throw std::invalid_argument("--jobs needs a value");
                opts.jobs = parseJobs("--jobs", argv[++i]);
            } else if (arg.rfind("--jobs=", 0) == 0) {
                opts.jobs = parseJobs("--jobs", arg.substr(7));
            } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
                opts.jobs = parseJobs("-j", arg.substr(2));
            } else {
                throw std::invalid_argument(
                    "unknown flag '" + arg + "' (expected " +
                    (quick != nullptr ? "--quick, " : "") +
                    "--jobs N, --jobs=N or -jN)");
            }
        }
        // A malformed $CHECKIN_JOBS fails here, before any point runs.
        resolveJobs(opts.jobs);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n",
                     std::filesystem::path(argv[0]).filename().c_str(),
                     e.what());
        std::exit(2);
    }
    return opts;
}

std::vector<SweepOutcome>
runSweep(const std::vector<SweepPoint> &points,
         const SweepOptions &opts)
{
    std::vector<SweepOutcome> out(points.size());
    if (points.empty())
        return out;

    const unsigned jobs = std::min<unsigned>(
        std::max(1u, resolveJobs(opts.jobs)),
        static_cast<unsigned>(points.size()));

    // Workers claim indices from a shared counter; each outcome slot
    // is written by exactly one worker, so the only synchronization
    // needed is the counter and the final join.
    std::atomic<std::size_t> next{0};
    auto work = [&points, &out, &opts, &next] {
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) <
             points.size();) {
            SweepOutcome &o = out[i];
            o.label = points[i].label;
            ExperimentConfig cfg = points[i].config;
            if (cfg.seed == 0) {
                // Index-derived via stream derivation, not drawn
                // from a shared RNG: the seed of point i is the same
                // whichever worker runs it, whenever.
                cfg.seed = Rng(opts.baseSeed).childSeed(i);
            }
            try {
                o.result = runExperiment(cfg);
                o.ok = true;
            } catch (const std::exception &e) {
                o.error = e.what();
            } catch (...) {
                o.error = "unknown exception";
            }
        }
    };

    if (jobs == 1) {
        work();
        return out;
    }
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        workers.emplace_back(work);
    for (std::thread &w : workers)
        w.join();
    return out;
}

std::size_t
SweepGrid::size() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.size();
    return n;
}

std::vector<SweepPoint>
SweepGrid::points() const
{
    std::vector<SweepPoint> pts;
    if (size() == 0)
        return pts;
    pts.reserve(size());
    std::vector<std::size_t> idx(axes_.size(), 0);
    for (;;) {
        SweepPoint p{std::string(), base_};
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const Value &v = axes_[a][idx[a]];
            if (a != 0)
                p.label += '-';
            p.label += v.label;
            if (v.apply)
                v.apply(p.config);
        }
        pts.push_back(std::move(p));
        // Odometer increment, last axis fastest.
        std::size_t a = axes_.size();
        while (a > 0) {
            --a;
            if (++idx[a] < axes_[a].size())
                break;
            idx[a] = 0;
            if (a == 0)
                return pts;
        }
        if (axes_.empty())
            return pts;
    }
}

} // namespace checkin
