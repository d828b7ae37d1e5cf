#include "cluster/shard.h"

#include <algorithm>
#include <cassert>

#include "harness/presets.h"

namespace checkin {

namespace {

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

} // namespace

ShardNode::ShardNode(std::uint32_t shard, std::uint64_t seed,
                     const ExperimentConfig &cfg,
                     std::vector<std::uint64_t> global_keys,
                     const WorkloadSpec &sizer_spec,
                     Tick response_latency, bool attribution)
    : ClusterNode(seed, "shard" + std::to_string(shard)),
      shard_(shard),
      cfg_(cfg),
      globalKeys_(std::move(global_keys)),
      sizerSpec_(sizer_spec),
      responseLatency_(response_latency),
      telem_(cfg.obs.telemetry)
{
    attr_.setEnabled(attribution);
    if (attribution)
        ctx_.setAttribution(&attr_);
    // The stack built in buildAndLoad() registers its probes against
    // this sampler via the shard's context.
    if (telem_.enabled())
        ctx_.setTelemetry(&telem_);
}

ShardNode::~ShardNode() = default;

void
ShardNode::buildAndLoad()
{
    SimContextScope scope(ctx_);

    // The fault plan must exist before the device (the Ssd wires it
    // into the NAND at construction); its seed derives from the
    // shard's context seed, so each shard has its own deterministic
    // fault schedule.
    faults_ = std::make_unique<FaultPlan>(
        cfg_.faults, ctx_.deriveSeed(FaultPlan::kSeedStream));
    ctx_.setFaults(faults_.get());

    FtlConfig ftl_cfg = cfg_.ftl;
    ftl_cfg.mappingUnitBytes = cfg_.resolvedMappingUnit();
    ssd_ = std::make_unique<Ssd>(ctx_, cfg_.nand, ftl_cfg, cfg_.ssd);
    engine_ = presets::makeEngine(ctx_, *ssd_, cfg_.engine);

    // Initial values are sized by the *global* key so shard placement
    // never changes a key's content, only where it lives.
    WorkloadGenerator sizer(
        sizerSpec_,
        std::max<std::uint64_t>(1, globalKeys_.size()));
    engine_->load([this, &sizer](std::uint64_t local_key) {
        return sizer.initialSize(globalKeys_[local_key]);
    });

    // Drain the load so the measured run starts from an idle device,
    // then snapshot baselines so every summary is a post-load delta.
    EventQueue &eq = ctx_.events();
    eq.schedule(ssd_->quiesceTick(), [] {});
    eq.run();
    nandReads0_ = ssd_->nand().stats().get("nand.reads");
    nandPrograms0_ = ssd_->nand().stats().get("nand.programs");
    nandErases0_ = ssd_->nand().stats().get("nand.erases");
    journalStalls0_ = engine_->stats().get("engine.journalStalls");
    ckptCount0_ = engine_->checkpointDurations().size();
    if (attr_.enabled())
        attr_.clearForMeasurement();

    // Arm sampling on the shard's own queue: windows are in shard
    // sim time, untouched by synchronizer threading.
    telem_.begin(eq);

    engine_->start();
}

void
ShardNode::onMessage(const Message &m)
{
    switch (m.kind) {
      case Message::Kind::Request:
        execute(m);
        break;
      case Message::Kind::CkptControl:
        engine_->requestCheckpoint(obs::CkptTrigger::Manual);
        break;
      case Message::Kind::Response:
        assert(false && "shards do not receive responses");
        break;
    }
}

void
ShardNode::execute(const Message &m)
{
    const Tick arrival = ctx_.now();
    const obs::OpToken tok =
        obs::attrBeginOp(opAttrClass(m.op), arrival);
    // Park the request in a slot so the completion captures only
    // {this, slot} and fits std::function's inline buffer.
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = std::uint32_t(inFlight_.size());
        inFlight_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    inFlight_[slot] = InFlight{m, arrival, tok};
    auto cb = [this, slot](const QueryResult &res) {
        complete(slot, res);
    };
    obs::AttrOpScope attr_scope(tok);
    switch (m.op) {
      case WorkloadGenerator::OpType::Read:
        engine_->get(m.key, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Update:
        engine_->update(m.key, m.valueBytes, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Rmw:
        engine_->readModifyWrite(m.key, m.valueBytes,
                                 std::move(cb));
        break;
      case WorkloadGenerator::OpType::Scan:
        engine_->scan(m.key, m.scanLength, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Delete:
        engine_->erase(m.key, std::move(cb));
        break;
    }
}

void
ShardNode::complete(std::uint32_t slot, const QueryResult &res)
{
    const InFlight f = inFlight_[slot];
    freeSlots_.push_back(slot);
    obs::attrFinishOp(f.tok, res.done);
    ++ops_;
    if (f.request.op == WorkloadGenerator::OpType::Update ||
        f.request.op == WorkloadGenerator::OpType::Rmw) {
        bytes_ += f.request.valueBytes;
    }
    service_.record(res.done > f.arrival ? res.done - f.arrival : 0);
    Message resp = f.request;
    resp.kind = Message::Kind::Response;
    resp.dst = 0; // the router
    resp.deliverTick = res.done + responseLatency_;
    resp.found = res.found;
    resp.scanned = res.scanned;
    resp.duringCheckpoint = res.duringCheckpoint;
    send(resp);
}

void
ShardNode::drainCheckpoint()
{
    SimContextScope scope(ctx_);
    while (engine_->checkpointInProgress() && ctx_.events().step()) {
    }
    // Flush the residual window before verification reads perturb
    // the shard's device counters.
    telem_.finalize(ctx_.events().now());
}

ShardSummary
ShardNode::summary(double tail_quantile) const
{
    ShardSummary s;
    s.shard = shard_;
    s.keys = globalKeys_.size();
    s.ops = ops_;
    s.bytes = bytes_;
    s.events = ctx_.events().dispatched();
    s.service = service_;

    const std::vector<Tick> &durations =
        engine_->checkpointDurations();
    s.checkpoints = durations.size() - ckptCount0_;
    Tick total = 0;
    Tick worst = 0;
    for (std::size_t i = ckptCount0_; i < durations.size(); ++i) {
        total += durations[i];
        worst = std::max(worst, durations[i]);
    }
    if (s.checkpoints > 0) {
        s.avgCheckpointMs =
            double(total) / double(s.checkpoints) / double(kMsec);
    }
    s.maxCheckpointMs = double(worst) / double(kMsec);

    s.nandReads =
        ssd_->nand().stats().get("nand.reads") - nandReads0_;
    s.nandPrograms =
        ssd_->nand().stats().get("nand.programs") - nandPrograms0_;
    s.nandErases =
        ssd_->nand().stats().get("nand.erases") - nandErases0_;
    s.journalStalls =
        engine_->stats().get("engine.journalStalls") -
        journalStalls0_;

    if (attr_.enabled()) {
        s.attribution = attr_.summary(tail_quantile);
        constexpr auto stall =
            std::size_t(obs::Stage::CheckpointStall);
        for (const obs::ClassBreakdown &c : s.attribution.perClass)
            s.ckptStallTicks += c.dwell[stall];
        for (const obs::ClassBreakdown &c :
             s.attribution.tailPerClass) {
            s.tailCkptStallTicks += c.dwell[stall];
        }
    }
    return s;
}

} // namespace checkin
