#include "harness/presets.h"

#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_config.h"
#include "engine/kv_engine.h"
#include "engine/lsm/lsm_engine.h"

namespace checkin::presets {

namespace {

/** Look @p name up in a (name, value) table; throw listing the
 *  table's names if it is not there. */
template <typename T>
T
lookup(const std::string &name, const char *what,
       std::initializer_list<std::pair<const char *, T>> table)
{
    std::string expected;
    for (const auto &[n, v] : table) {
        if (name == n)
            return v;
        expected += (expected.empty() ? "" : "|") + std::string(n);
    }
    throw std::invalid_argument("unknown " + std::string(what) + " '" +
                                name + "' (expected " + expected +
                                ")");
}

} // namespace

std::unique_ptr<StorageEngine>
makeEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg)
{
    switch (cfg.backend) {
      case EngineBackend::CheckIn:
        return std::make_unique<KvEngine>(ctx, ssd, cfg);
      case EngineBackend::Lsm:
        return std::make_unique<LsmEngine>(ctx, ssd, cfg);
    }
    throw std::runtime_error("makeEngine: unknown backend");
}

EngineBackend
parseEngineBackend(const std::string &name)
{
    return lookup<EngineBackend>(name, "engine backend",
                                 {{"checkin", EngineBackend::CheckIn},
                                  {"lsm", EngineBackend::Lsm}});
}

CheckpointMode
parseCheckpointMode(const std::string &name)
{
    using M = CheckpointMode;
    return lookup<M>(name, "checkpoint mode",
                     {{"baseline", M::Baseline}, {"isc-a", M::IscA},
                      {"isc-b", M::IscB}, {"isc-c", M::IscC},
                      {"checkin", M::CheckIn}});
}

WorkloadSpec
parseWorkload(const std::string &name)
{
    using W = WorkloadSpec;
    return lookup<W (*)()>(name, "workload",
                           {{"a", W::a}, {"b", W::b}, {"c", W::c},
                            {"d", W::d}, {"e", W::e}, {"f", W::f},
                            {"wo", W::wo}})();
}

ArrivalProcess
parseArrivalProcess(const std::string &name)
{
    using P = ArrivalProcess;
    return lookup<P>(name, "arrival process",
                     {{"poisson", P::Poisson}, {"mmpp", P::Mmpp},
                      {"diurnal", P::Diurnal}});
}

CkptCoordination
parseCoordination(const std::string &name)
{
    using C = CkptCoordination;
    return lookup<C>(name, "checkpoint coordination",
                     {{"independent", C::Independent},
                      {"synchronized", C::Synchronized},
                      {"staggered", C::Staggered}});
}

CheckpointPolicyKind
parseCheckpointPolicy(const std::string &name)
{
    using K = CheckpointPolicyKind;
    return lookup<K>(name, "checkpoint policy",
                     {{"fixed", K::Fixed}, {"adaptive", K::Adaptive}});
}

std::uint64_t
parseCount(const std::string &what, const std::string &text,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    bool ok = !text.empty();
    for (const char c : text) {
        const std::uint64_t d = std::uint64_t(c - '0');
        if (c < '0' || c > '9' || d > hi || v > (hi - d) / 10) {
            ok = false;
            break;
        }
        v = v * 10 + d;
    }
    if (!ok || v < lo) {
        throw std::invalid_argument(
            what + " expects a whole number in [" + std::to_string(lo) +
            ", " + std::to_string(hi) + "], got '" + text + "'");
    }
    return v;
}

ExperimentConfig
small()
{
    ExperimentConfig c;
    c.nand.channels = 4;
    c.nand.diesPerChannel = 2;
    c.nand.blocksPerPlane = 64;
    c.nand.pagesPerBlock = 64;
    // 4 * 2 * 64 * 64 * 4 KiB = 128 MiB raw. The DRAM data cache is
    // scaled with the device (Table I's 64 MiB : TB-class device).
    c.ftl.dataCacheBytes = 4 * kMiB;
    c.engine.recordCount = 4000;
    c.engine.maxValueBytes = 4096;
    c.engine.journalHalfBytes = 8 * kMiB;
    c.engine.checkpointJournalBytes = 2 * kMiB;
    c.engine.checkpointInterval = 25 * kMsec;
    c.workload.operationCount = 20'000;
    c.threads = 32;
    return c;
}

ExperimentConfig
paper()
{
    ExperimentConfig c = small();
    c.engine.checkpointInterval = 200 * kMsec;
    c.engine.checkpointJournalBytes = 6 * kMiB;
    return c;
}

ExperimentConfig
faulty()
{
    ExperimentConfig c = small();
    // Frequent checkpoints widen the mid-checkpoint crash windows
    // the oracle probes.
    c.engine.checkpointInterval = 10 * kMsec;
    c.faults.enabled = true;
    // Probabilities are per media op and wear-scaled; at this scale
    // the ECC retry budget recovers nearly all read faults while a
    // handful of program/erase fails exercise block retirement.
    c.faults.readBitErrorProb = 5e-4;
    c.faults.programFailProb = 2e-4;
    c.faults.eraseFailProb = 1e-3;
    c.faults.wearFactor = 1.0;
    return c;
}

} // namespace checkin::presets
