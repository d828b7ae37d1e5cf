#include "harness/node_stack.h"

#include <algorithm>

#include "harness/presets.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"

namespace checkin {

namespace {

FtlConfig
ftlConfigOf(const ExperimentConfig &cfg)
{
    FtlConfig ftl = cfg.ftl;
    ftl.mappingUnitBytes = cfg.resolvedMappingUnit();
    return ftl;
}

} // namespace

std::uint64_t
statOr0(const StatMap &stats, const std::string &key)
{
    const auto it = stats.find(key);
    return it == stats.end() ? 0 : it->second;
}

NodeStack::NodeStack(SimContext &ctx, const ExperimentConfig &cfg)
    : ctx_(ctx),
      engineCfg_(cfg.engine),
      faults_(cfg.faults, ctx.deriveSeed(FaultPlan::kSeedStream))
{
    // The Ssd wires the context's fault plan into the NAND at
    // construction, so the plan goes in first.
    ctx_.setFaults(&faults_);
    ssd_ = std::make_unique<Ssd>(ctx_, cfg.nand, ftlConfigOf(cfg),
                                 cfg.ssd);
    engine_ = presets::makeEngine(ctx_, *ssd_, engineCfg_);
}

NodeStack::~NodeStack()
{
    ctx_.setFaults(nullptr);
}

void
NodeStack::load(
    const std::function<std::uint32_t(std::uint64_t)> &size_of)
{
    engine_->load(size_of);
    // Let the load drain so run-time latencies start from an idle
    // device, then baseline so results exclude the load.
    EventQueue &eq = ctx_.events();
    eq.schedule(ssd_->quiesceTick(), [] {});
    eq.run();
    statsAtLoad_ = stats();
    checkpointsAtLoad_ = engine_->checkpointDurations().size();
    // Load-phase events and op records go too (lane names survive),
    // so the sinks cover exactly the measured run.
    if (obs::Tracer *tracer = ctx_.tracer())
        tracer->clear();
    if (obs::AttributionCollector *attr = ctx_.attribution())
        attr->clearForMeasurement();
}

StatMap
NodeStack::stats() const
{
    StatMap out;
    const Ssd &ssd = *ssd_;
    for (const StatRegistry *reg :
         {&ssd.nand().stats(), &ssd.ftl().stats(), &ssd.stats(),
          &engine().stats()}) {
        for (const auto &[k, v] : reg->all())
            out[k] = v;
    }
    return out;
}

StatMap
NodeStack::deltasSinceLoad() const
{
    StatMap out = stats();
    for (auto &[k, v] : out)
        v -= statOr0(statsAtLoad_, k);
    return out;
}

CheckpointTally
NodeStack::checkpointsSinceLoad() const
{
    const std::vector<Tick> &durations = engine_->checkpointDurations();
    CheckpointTally t;
    t.count = durations.size() - checkpointsAtLoad_;
    Tick total = 0;
    Tick worst = 0;
    for (std::size_t i = checkpointsAtLoad_; i < durations.size();
         ++i) {
        total += durations[i];
        worst = std::max(worst, durations[i]);
    }
    if (t.count > 0)
        t.avgMs = double(total) / double(t.count) / double(kMsec);
    t.maxMs = double(worst) / double(kMsec);
    return t;
}

Ftl::RebuildReport
NodeStack::crash(CrashModel model)
{
    ctx_.events().clear();
    if (model == CrashModel::HostRestart)
        return {};
    const Ftl::RebuildReport report = ssd_->suddenPowerLoss();
    ssd_->ftl().checkInvariants();
    return report;
}

RecoveryInfo
NodeStack::recover()
{
    engine_.reset();
    engine_ = presets::makeEngine(ctx_, *ssd_, engineCfg_);
    return engine_->recover();
}

} // namespace checkin
