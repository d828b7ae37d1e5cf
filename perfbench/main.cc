/**
 * @file
 * Benchmark command: runs one workload for a fixed host-time budget,
 * checks the outputs, and prints every metric by name with its unit.
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 *   perfbench --workload ycsb-a|lsm-gc|cluster-mmpp
 *             [--seed N|default|held-out] [--seconds S] [--trace 0|1]
 *             [--spans-out FILE]
 *
 * A run repeats whole trials (build the stack, load, run the measured
 * operations, verify) with the same seed until the budget is spent.
 * Simulated-side metrics are identical in every trial, and the gate
 * checks that they are; host-side metrics are medians over trials.
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced and traced trials and reports the per-layer metrics, with
 * the tracing overhead as the ratio of their host times.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver.h"
#include "obs/flight_recorder.h"
#include "sim/inline_event.h"

using namespace perfbench;
using checkin::kMsec;
using checkin::kUsec;

namespace {

struct Args
{
    std::string workload;
    std::string seed = "default";
    double seconds = 10.0;
    int trace = 0;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "ycsb-a|lsm-gc|cluster-mmpp [--seed "
                 "N|default|held-out] [--seconds S] [--trace 0|1] "
                 "[--spans-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = v;
        else if (arg == "--seconds")
            a.seconds = std::stod(v);
        else if (arg == "--trace")
            a.trace = std::stoi(v);
        else if (arg == "--spans-out")
            a.spansOut = v;
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace takes 0 or 1");
    if (!(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    return a;
}

std::uint64_t
resolveSeed(const WorkloadDef &w, const std::string &s)
{
    if (s == "default")
        return w.defaultSeed;
    if (s == "held-out")
        return w.heldOutSeed;
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size())
        usage("--seed takes a number, default or held-out");
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
medianOf(const std::vector<Trial> &trials,
         const std::function<double(const Trial &)> &f)
{
    std::vector<double> v;
    v.reserve(trials.size());
    for (const Trial &t : trials)
        v.push_back(f(t));
    return median(std::move(v));
}

/** Nearest-rank quantile of exact samples. */
double
exactQuantile(std::vector<Tick> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return double(v[rank - 1]);
}

/**
 * Quantile @p q of each part's samples, median over the parts. A
 * tail this deep is set by a part's longest busy period; the median
 * keeps one part's rare episode from setting the whole figure.
 */
double
partTailUs(const TrialSim &s, double q)
{
    std::vector<double> per_part;
    auto begin = s.latencies.begin();
    for (const std::size_t n : s.partSamples) {
        per_part.push_back(exactQuantile({begin, begin + n}, q));
        begin += n;
    }
    return median(std::move(per_part)) / kUsec;
}

/** Order-sensitive digest of everything simulated in a trial. */
std::uint64_t
simDigest(const TrialSim &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(s.attempted);
    mix(s.completed);
    for (const Tick l : s.latencies)
        mix(l);
    for (const Tick d : s.checkpointDurations)
        mix(d);
    for (const auto &[k, v] : s.deltas) {
        mix(std::hash<std::string>{}(k));
        mix(v);
    }
    mix(s.measuredEvents);
    mix(s.totalEvents);
    mix(s.clampedSchedules);
    mix(s.verifiedKeys);
    mix(s.eraseSkew);
    mix(s.windows);
    mix(s.messages);
    mix(s.telemetrySamples);
    return h;
}

std::uint64_t
delta(const TrialSim &s, const std::string &key)
{
    const auto it = s.deltas.find(key);
    return it == s.deltas.end() ? 0 : it->second;
}

double
perOp(const TrialSim &s, std::uint64_t v)
{
    return s.completed == 0 ? 0.0 : double(v) / double(s.completed);
}

/** Mean per-op dwell of one attribution stage, microseconds. */
double
dwellUs(const TrialSim &s, const char *stage)
{
    const checkin::obs::AttributionSummary &a = s.attribution;
    if (!a.enabled || a.totalOps == 0)
        return 0.0;
    for (std::size_t st = 0; st < checkin::obs::kStageCount; ++st) {
        if (std::strcmp(checkin::obs::stageName(
                            checkin::obs::Stage(st)),
                        stage) != 0)
            continue;
        Tick total = 0;
        for (const auto &c : a.perClass)
            total += c.dwell[st];
        return double(total) / double(a.totalOps) / double(kUsec);
    }
    throw std::logic_error(std::string("unknown stage ") + stage);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Gate one trial: every key verified, every op acknowledged, no
 *  clamped schedule. Returns the failures found (empty = pass). */
std::vector<std::string>
gate(const TrialSim &s)
{
    std::vector<std::string> why;
    if (s.verifiedKeys != s.expectedKeys)
        why.push_back("verified " + std::to_string(s.verifiedKeys) +
                      " of " + std::to_string(s.expectedKeys) +
                      " keys");
    if (s.completed != s.attempted)
        why.push_back("completed " + std::to_string(s.completed) +
                      " of " + std::to_string(s.attempted) + " ops");
    if (s.clampedSchedules != 0)
        why.push_back(std::to_string(s.clampedSchedules) +
                      " clamped schedules");
    if (s.latencies.size() != s.completed)
        why.push_back("latency samples do not match completions");
    return why;
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef *w = findWorkload(args.workload);
    if (w == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    const std::uint64_t seed = resolveSeed(*w, args.seed);

    SpanLog log;
    SpanLog router_log;
    double peak_rss_mb = 0.0;
    // One trial: w->parts runs on seeds derived from the workload
    // seed, merged. Spans of the last traced trial stay in the logs.
    auto runTrial = [&](bool traced) {
        log.clear();
        router_log.clear();
        Trial trial;
        for (std::uint32_t p = 0; p < w->parts; ++p) {
            const std::uint64_t ps = partSeed(seed, p);
            Trial part;
            if (w->cluster) {
                checkin::ClusterConfig c = clusterConfig(*w, ps, p);
                c.attributionEnabled = traced;
                part = runClusterNodes(c, traced ? &log : nullptr,
                                       traced ? &router_log : nullptr);
            } else {
                checkin::ExperimentConfig c = singleNodeConfig(*w, ps);
                c.obs.attributionEnabled = traced;
                part = runSingleNode(c, traced ? &log : nullptr);
            }
            std::string why;
            for (const std::string &f : gate(part.sim))
                why += (why.empty() ? "" : "; ") + f;
            if (!why.empty())
                throw std::runtime_error("seed " + std::to_string(ps) +
                                         ": " + why);
            // The first part runs on a fresh heap; later parts and
            // trials only add allocator fragmentation, so the
            // workload's peak is read here.
            if (peak_rss_mb == 0.0)
                peak_rss_mb = peakRssMb();
            if (p == 0)
                trial = std::move(part);
            else
                mergeTrial(trial, std::move(part));
        }
        return trial;
    };

    std::vector<Trial> untraced;
    std::vector<Trial> traced;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const std::uint64_t planned = w->ops * w->parts;
    std::optional<std::uint64_t> digest[2]; // untraced, traced
    const std::int64_t t0 = hostNowNs();
    for (std::size_t i = 0;; ++i) {
        const bool tr = args.trace == 1 && i % 2 == 1;
        const std::int64_t trial_start = hostNowNs();
        Trial t;
        std::vector<std::string> why;
        try {
            t = runTrial(tr);
        } catch (const std::exception &e) {
            why.push_back(e.what());
        }
        if (why.empty()) {
            // Every trial of a run simulates the same inputs.
            const std::uint64_t d = simDigest(t.sim);
            if (!digest[tr])
                digest[tr] = d;
            else if (d != *digest[tr]) {
                why.push_back("simulated results differ between "
                              "trials of one seed");
            }
        }
        const std::uint64_t att =
            t.sim.attempted != 0 ? t.sim.attempted : planned;
        attempted += att;
        if (!why.empty()) {
            failed += att;
            failures = std::move(why);
            break;
        }
        std::fprintf(stderr,
                     "trial %zu%s: measured %.6f s, %.0f ops/s\n", i,
                     tr ? " (traced)" : "", t.host.measuredS,
                     double(t.sim.completed) / t.host.measuredS);
        // Keep one trial's samples; the rest are identical.
        if (!(tr ? traced : untraced).empty())
            t.sim.latencies.clear();
        (tr ? traced : untraced).push_back(std::move(t));
        // Stop once the budget is spent, or when one more trial would
        // overrun it by more than half a trial.
        const std::int64_t now = hostNowNs();
        const double elapsed = double(now - t0) * 1e-9;
        const double last = double(now - trial_start) * 1e-9;
        if (elapsed + 0.5 * last >= args.seconds && !untraced.empty() &&
            (args.trace == 0 || !traced.empty()))
            break;
    }

    const bool correct = failures.empty();
    for (const std::string &s : failures)
        std::fprintf(stderr, "correctness gate FAILED: %s\n",
                     s.c_str());
    if (!correct) {
        printJson(false, attempted, failed, {});
        return 1;
    }
    if (args.trace == 1 && digest[0] != digest[1]) {
        // Attribution must not perturb the model; report, don't hide.
        std::fprintf(stderr,
                     "FINDING: traced and untraced trials simulate "
                     "different results\n");
    }

    const TrialSim &s = untraced.front().sim;
    std::vector<Metric> m;
    std::vector<Metric> table_only;
    if (args.trace == 0) {
        std::uint64_t slo_miss = 0;
        for (const Tick l : s.latencies)
            slo_miss += l > kSloLatency ? 1 : 0;
        slo_miss += s.attempted - s.completed;
        // Host throughput over the whole run: the host's speed
        // changes from second to second, and a total averages it where
        // a median of a few trials would jump between its levels.
        double ops = 0.0;
        double measured_s = 0.0;
        std::vector<double> setups;
        for (const Trial &t : untraced) {
            ops += double(t.sim.completed);
            measured_s += t.host.measuredS;
            setups.insert(setups.end(), t.host.setupS.begin(),
                          t.host.setupS.end());
        }
        double ckpt = 0.0;
        for (const Tick d : s.checkpointDurations)
            ckpt += double(d);
        if (!s.checkpointDurations.empty())
            ckpt /= double(s.checkpointDurations.size()) * double(kMsec);
        m = {
            {"host_ops_per_s", double(ops) / measured_s, "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"sim_ops_per_s", s.simOpsPerSec, "1/s"},
            {"lat_p50_us", exactQuantile(s.latencies, 0.5) / kUsec,
             "us"},
            {"lat_p9999_us", partTailUs(s, 0.9999), "us"},
            {"slo_miss_frac", double(slo_miss) / double(s.attempted),
             "ratio"},
            {"waf", s.waf(), "ratio"},
            {"ckpt_ms_mean", ckpt, "ms"},
        };
        // Always 0 when the gate passes, so it is printed but left out
        // of the JSON, whose metrics must be non-zero; the JSON's
        // attempted/failed fields carry the same counts.
        table_only.push_back({"failed_ops_frac",
                              double(failed) / double(attempted),
                              "ratio"});
        std::printf("%s seed=%llu trials=%zu latency_samples=%zu\n",
                    w->name, (unsigned long long)seed, untraced.size(),
                    s.latencies.size());
        // Raw host totals, for run.py to pool several processes.
        std::printf("{\"host_detail\": {\"ops\": %.17g, \"measured_s\": "
                    "%.17g, \"setup_s\": [",
                    ops, measured_s);
        for (std::size_t i = 0; i < setups.size(); ++i)
            std::printf("%s%.17g", i == 0 ? "" : ", ", setups[i]);
        std::printf("]}}\n");
    } else {
        const TrialSim &ts = traced.front().sim;
        auto span_med = [&](const char *name, bool self, bool allocs) {
            return medianOf(traced, [&](const Trial &t) {
                const auto it = t.host.spans.find(name);
                if (it == t.host.spans.end() || it->second.count == 0)
                    return 0.0;
                const SpanTotals &st = it->second;
                if (allocs)
                    return double(st.selfAllocs) / double(st.count);
                return double(self ? st.selfNs : st.totalNs) /
                       double(st.count);
            });
        };
        const double self_share = medianOf(traced, [](const Trial &t) {
            const auto it = t.host.spans.find("sim.run");
            if (it == t.host.spans.end() || it->second.totalNs == 0)
                return 0.0;
            return double(it->second.selfNs) /
                   double(it->second.totalNs);
        });
        const double ckpts = double(ts.checkpointDurations.size());
        auto ckpt_phase_ms = [&](const char *key) {
            return ckpts == 0 ? 0.0
                              : double(delta(ts, key)) / ckpts /
                                    double(kMsec);
        };
        std::uint64_t ssd_cmds = 0;
        for (const auto &[k, v] : ts.deltas) {
            if (k.rfind("ssd.cmd.", 0) == 0)
                ssd_cmds += v;
        }
        const double hits = double(delta(ts, "ftl.cacheHits"));
        const double page_reads = double(delta(ts, "ftl.pageReads"));
        const double measured_u = medianOf(
            untraced, [](const Trial &t) { return t.host.measuredS; });
        const double measured_t = medianOf(
            traced, [](const Trial &t) { return t.host.measuredS; });
        m = {
            {"sim.events_per_op", perOp(s, s.measuredEvents),
             "events/op"},
            {"sim.allocs_per_op",
             medianOf(untraced,
                      [](const Trial &t) {
                          return perOp(t.sim, t.host.allocs);
                      }),
             "allocs/op"},
            {"sim.inline_spills_per_op",
             medianOf(untraced,
                      [](const Trial &t) {
                          return perOp(t.sim, t.host.spills);
                      }),
             "spills/op"},
            {"sim.host_ns_per_event",
             medianOf(untraced,
                      [](const Trial &t) {
                          return t.host.measuredS * 1e9 /
                                 double(t.sim.measuredEvents);
                      }),
             "ns"},
            {"sim.host_self_share", self_share, "ratio"},
            {"sim.clamped_schedules", double(s.clampedSchedules),
             "count"},
            {"workload.host_ns_per_op",
             span_med("workload.complete", true, false), "ns"},
            {"workload.queue_delay_p999_us",
             double(s.queueDelay.quantile(0.999)) / kUsec, "us"},
            {"workload.offered_over_achieved",
             s.arrivalSpan == 0 || s.completed == 0
                 ? 0.0
                 : (double(s.offered) / double(s.arrivalSpan)) /
                       (double(s.completed) / double(s.simSpan)),
             "ratio"},
            {"workload.latency_samples", double(s.latencies.size()),
             "count"},
            {"engine.host_ns_per_call",
             span_med("engine.call", true, false), "ns"},
            {"engine.allocs_per_call",
             span_med("engine.call", true, true), "allocs"},
            {"engine.load_s",
             w->cluster ? 0.0
                        : medianOf(untraced,
                                   [](const Trial &t) {
                                       return t.host.loadS / t.parts;
                                   }),
             "s"},
            {"engine.verify_s",
             medianOf(untraced,
                      [](const Trial &t) {
                          return t.host.verifyS / t.parts;
                      }),
             "s"},
            {"engine.dwell.hostCpu_us", dwellUs(ts, "hostCpu"), "us"},
            {"engine.dwell.checkpointStall_us",
             dwellUs(ts, "checkpointStall"), "us"},
            {"engine.dwell.journalWait_us", dwellUs(ts, "journalWait"),
             "us"},
            {"engine.ckpt_data_ms",
             ckpt_phase_ms("engine.ckptDataTicks"), "ms"},
            {"engine.ckpt_meta_ms",
             ckpt_phase_ms("engine.ckptMetaTicks"), "ms"},
            {"engine.ckpt_delete_ms",
             ckpt_phase_ms("engine.ckptDeleteTicks"), "ms"},
            {"engine.journal_stalls",
             double(delta(ts, "engine.journalStalls")), "count"},
            {"engine.compactions",
             double(delta(ts, "engine.compactions")), "count"},
            {"ssd.cmds_per_op", perOp(ts, ssd_cmds), "cmds/op"},
            {"ssd.dwell.ssdQueue_us", dwellUs(ts, "ssdQueue"), "us"},
            {"ssd.dwell.firmware_us", dwellUs(ts, "firmware"), "us"},
            {"ssd.dwell.bus_us", dwellUs(ts, "bus"), "us"},
            {"ssd.dwell.backpressure_us", dwellUs(ts, "backpressure"),
             "us"},
            {"ssd.write_stalls", double(delta(ts, "ssd.writeStalls")),
             "count"},
            {"isce.remapped_units_per_op",
             perOp(ts, delta(ts, "isce.remappedUnits")), "units/op"},
            {"isce.copied_chunks_per_op",
             perOp(ts, delta(ts, "isce.copiedChunks")), "chunks/op"},
            {"ftl.remaps_per_op", perOp(ts, delta(ts, "ftl.remaps")),
             "remaps/op"},
            {"ftl.ckpt_slot_writes_per_op",
             perOp(ts, delta(ts, "ftl.slotWrites.checkpoint")),
             "writes/op"},
            {"ftl.cache_hit_ratio",
             hits + page_reads == 0.0 ? 0.0
                                      : hits / (hits + page_reads),
             "ratio"},
            {"ftl.gc_invocations_per_op",
             perOp(ts, delta(ts, "gc.invocations")), "gcs/op"},
            {"ftl.gc_migrated_slots_per_op",
             perOp(ts, delta(ts, "gc.migratedSlots")), "slots/op"},
            {"ftl.dwell.ftlMap_us", dwellUs(ts, "ftlMap"), "us"},
            {"ftl.dwell.dramCache_us", dwellUs(ts, "dramCache"), "us"},
            {"ftl.dwell.gcStall_us", dwellUs(ts, "gcStall"), "us"},
            {"nand.reads_per_op", perOp(ts, delta(ts, "nand.reads")),
             "reads/op"},
            {"nand.programs_per_op",
             perOp(ts, delta(ts, "nand.programs")), "programs/op"},
            {"nand.erases_per_op", perOp(ts, delta(ts, "nand.erases")),
             "erases/op"},
            {"nand.dwell.nandWait_us", dwellUs(ts, "nandWait"), "us"},
            {"nand.dwell.nandMedia_us", dwellUs(ts, "nandMedia"),
             "us"},
            {"nand.erase_skew", double(ts.eraseSkew), "count"},
            {"cluster.windows_per_op", perOp(ts, ts.windows),
             "windows/op"},
            {"cluster.messages_per_op", perOp(ts, ts.messages),
             "msgs/op"},
            {"cluster.host_ns_per_window",
             span_med("cluster.window", false, false), "ns"},
            {"cluster.load_s",
             w->cluster ? medianOf(untraced,
                                   [](const Trial &t) {
                                       return t.host.loadS / t.parts;
                                   })
                        : 0.0,
             "s"},
            {"obs.telemetry_samples_per_op",
             perOp(ts, ts.telemetrySamples), "samples/op"},
            {"obs.trace_overhead", measured_t / measured_u - 1.0,
             "ratio"},
        };
        std::printf("%s seed=%llu untraced_trials=%zu "
                    "traced_trials=%zu traced_sim_identical=%s\n",
                    w->name, (unsigned long long)seed, untraced.size(),
                    traced.size(),
                    digest[0] == digest[1] ? "yes" : "no");
        if (!args.spansOut.empty()) {
            std::ofstream out(args.spansOut);
            log.writeCsv(out);
            if (w->cluster) {
                std::ofstream rout(args.spansOut + ".router");
                router_log.writeCsv(rout);
            }
        }
    }

    bool finite = true;
    for (const Metric &x : m) {
        std::printf("  %-34s %22.6f %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
        finite = finite && std::isfinite(x.value);
    }
    for (const Metric &x : table_only)
        std::printf("  %-34s %22.6f %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    if (!finite) {
        std::fprintf(stderr, "correctness gate FAILED: a metric is "
                             "not finite\n");
        printJson(false, attempted, failed, {});
        return 1;
    }
    printJson(true, attempted, failed, m);
    return 0;
}
