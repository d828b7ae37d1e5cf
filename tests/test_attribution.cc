/**
 * @file
 * Tests for per-op latency attribution: OpTimeline conservation (the
 * per-stage dwells must sum to the client-visible latency exactly),
 * collector pool reuse, command-segment replay, stage overrides, the
 * slowest-K flight recorder, and the checkpoint phase timeline.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "harness/experiment.h"
#include "harness/presets.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"

namespace checkin {
namespace {

std::size_t
idx(obs::Stage s)
{
    return std::size_t(s);
}

Tick
dwellSum(const obs::OpRecord &r)
{
    Tick sum = 0;
    for (const Tick d : r.dwell)
        sum += d;
    return sum;
}

// ----------------------------------------------------------------------
// Collector unit tests
// ----------------------------------------------------------------------

TEST(AttributionCollector, MarksAccumulateAndRemainderIsOther)
{
    obs::AttributionCollector a;
    a.setEnabled(true);
    const obs::OpToken op = a.beginOp(obs::OpClass::Read, 100);
    a.mark(op, obs::Stage::HostCpu, 150);
    // Non-monotone marks are dropped, never subtracted.
    a.mark(op, obs::Stage::SsdQueue, 140);
    a.mark(op, obs::Stage::NandMedia, 230);
    a.finishOp(op, 300);
    ASSERT_EQ(a.ops().size(), 1u);
    const obs::OpRecord &r = a.ops()[0];
    EXPECT_EQ(r.dwell[idx(obs::Stage::HostCpu)], 50u);
    EXPECT_EQ(r.dwell[idx(obs::Stage::SsdQueue)], 0u);
    EXPECT_EQ(r.dwell[idx(obs::Stage::NandMedia)], 80u);
    EXPECT_EQ(r.dwell[idx(obs::Stage::Other)], 70u);
    EXPECT_EQ(r.latency(), 200u);
    EXPECT_EQ(dwellSum(r), r.latency());
}

TEST(AttributionCollector, PoolSlotsAreReused)
{
    obs::AttributionCollector a;
    a.setEnabled(true);
    for (Tick i = 0; i < 100; ++i) {
        const obs::OpToken op = a.beginOp(obs::OpClass::Update, i);
        a.finishOp(op, i + 1);
    }
    EXPECT_EQ(a.poolSize(), 1u);
    EXPECT_EQ(a.liveTokens(), 0u);
    EXPECT_EQ(a.ops().size(), 100u);
}

TEST(AttributionCollector, CommandSegmentsReplayOntoAnOp)
{
    obs::AttributionCollector a;
    a.setEnabled(true);
    obs::AttributionScope scope(&a);
    const obs::OpToken op = a.beginOp(obs::OpClass::Read, 0);
    a.cmdBegin();
    obs::attrCmdMark(obs::Stage::SsdQueue, 10);
    {
        // Nested stage override: the NAND push is map-fetch time.
        obs::AttrStageScope ftl(obs::Stage::FtlMap);
        obs::attrCmdMark(obs::Stage::NandMedia, 30);
    }
    obs::attrCmdMark(obs::Stage::NandMedia, 40);
    a.cmdEnd();
    a.applyCmdTo(op);
    a.finishOp(op, 40);
    ASSERT_EQ(a.ops().size(), 1u);
    const obs::OpRecord &r = a.ops()[0];
    EXPECT_EQ(r.dwell[idx(obs::Stage::SsdQueue)], 10u);
    EXPECT_EQ(r.dwell[idx(obs::Stage::FtlMap)], 20u);
    EXPECT_EQ(r.dwell[idx(obs::Stage::NandMedia)], 10u);
    EXPECT_EQ(dwellSum(r), r.latency());
}

TEST(AttributionCollector, CmdMarksOutsideACommandAreDropped)
{
    obs::AttributionCollector a;
    a.setEnabled(true);
    obs::AttributionScope scope(&a);
    const obs::OpToken op = a.beginOp(obs::OpClass::Read, 0);
    // No cmdBegin: background work (e.g. idle GC) marks nothing.
    obs::attrCmdMark(obs::Stage::GcStall, 50);
    a.cmdBegin();
    a.cmdEnd();
    a.applyCmdTo(op);
    a.finishOp(op, 100);
    const obs::OpRecord &r = a.ops()[0];
    EXPECT_EQ(r.dwell[idx(obs::Stage::GcStall)], 0u);
    EXPECT_EQ(r.dwell[idx(obs::Stage::Other)], 100u);
}

TEST(AttributionCollector, DisabledCollectorAllocatesNothing)
{
    obs::AttributionCollector a;
    EXPECT_FALSE(a.enabled());
    EXPECT_EQ(a.storageBytes(), 0u);
    EXPECT_EQ(a.poolSize(), 0u);
    obs::AttributionScope scope(&a);
    // Probes must all be inert against a disabled collector.
    const obs::OpToken op =
        obs::attrBeginOp(obs::OpClass::Read, 10);
    EXPECT_EQ(op, obs::kNoOpToken);
    obs::attrMark(op, obs::Stage::HostCpu, 20);
    obs::attrCmdMark(obs::Stage::Bus, 30);
    obs::attrFinishOp(op, 40);
    EXPECT_EQ(a.storageBytes(), 0u);
    EXPECT_EQ(a.poolSize(), 0u);
    EXPECT_TRUE(a.ops().empty());
}

TEST(FlightRecorder, KeepsSlowestKWithDeterministicTies)
{
    obs::FlightRecorder f(2);
    auto rec = [](Tick issued, Tick done) {
        obs::OpRecord r;
        r.cls = obs::OpClass::Read;
        r.issued = issued;
        r.done = done;
        return r;
    };
    f.note(rec(0, 10));
    f.note(rec(0, 30));
    f.note(rec(0, 20)); // evicts the 10-tick op
    f.note(rec(5, 25)); // same 20-tick latency: earliest entry stays
    const auto s = f.slowest();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].latency(), 30u);
    EXPECT_EQ(s[1].latency(), 20u);
    EXPECT_EQ(s[1].issued, 0u);
}

// ----------------------------------------------------------------------
// End-to-end conservation across checkpoint modes
// ----------------------------------------------------------------------

constexpr CheckpointMode kModes[] = {
    CheckpointMode::Baseline, CheckpointMode::IscA,
    CheckpointMode::IscB, CheckpointMode::IscC,
    CheckpointMode::CheckIn};

ExperimentConfig
attributedConfig(CheckpointMode mode)
{
    ExperimentConfig cfg = presets::small();
    cfg.engine.mode = mode;
    cfg.workload.operationCount = 2000;
    cfg.threads = 8;
    cfg.obs.attributionEnabled = true;
    return cfg;
}

/** Every op's stage dwells must sum to its latency, exactly. */
void
expectConservation(const obs::AttributionCollector &attr,
                   const RunResult &r)
{
    ASSERT_EQ(attr.ops().size(), r.client.opsCompleted);
    for (const obs::OpRecord &rec : attr.ops()) {
        ASSERT_GE(rec.done, rec.issued);
        if (dwellSum(rec) != rec.latency()) {
            std::string msg = std::string("class=") +
                              obs::opClassName(rec.cls) +
                              " issued=" + std::to_string(rec.issued) +
                              " done=" + std::to_string(rec.done);
            for (std::size_t s = 0; s < obs::kStageCount; ++s)
                if (rec.dwell[s] != 0)
                    msg += std::string(" ") +
                           obs::stageName(obs::Stage(s)) + "=" +
                           std::to_string(rec.dwell[s]);
            SCOPED_TRACE(msg);
            ASSERT_EQ(dwellSum(rec), rec.latency());
        }
    }
    EXPECT_EQ(attr.liveTokens(), 0u);
}

TEST(AttributionRun, StageDwellsSumToLatencyInEveryMode)
{
    for (const CheckpointMode mode : kModes) {
        obs::AttributionCollector attr;
        attr.setEnabled(true);
        obs::AttributionScope scope(&attr);
        const RunResult r = runExperiment(attributedConfig(mode));
        SCOPED_TRACE(checkpointModeName(mode));
        expectConservation(attr, r);
        EXPECT_TRUE(r.attribution.enabled);
        EXPECT_EQ(r.attribution.totalOps, r.client.opsCompleted);
    }
}

TEST(AttributionRun, RmwAndScanClassesConserveToo)
{
    for (const WorkloadSpec &spec :
         {WorkloadSpec::f(), WorkloadSpec::e()}) {
        obs::AttributionCollector attr;
        attr.setEnabled(true);
        obs::AttributionScope scope(&attr);
        ExperimentConfig cfg =
            attributedConfig(CheckpointMode::CheckIn);
        cfg.workload = spec;
        cfg.workload.operationCount = 1000;
        const RunResult r = runExperiment(cfg);
        SCOPED_TRACE(spec.name);
        expectConservation(attr, r);
    }
}

TEST(AttributionRun, DeviceStagesReceiveDwellOnReadHeavyRun)
{
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::AttributionScope scope(&attr);
    const RunResult r =
        runExperiment(attributedConfig(CheckpointMode::CheckIn));
    Tick stage_total[obs::kStageCount] = {};
    for (const obs::OpRecord &rec : attr.ops()) {
        for (std::size_t s = 0; s < obs::kStageCount; ++s)
            stage_total[s] += rec.dwell[s];
    }
    // The op path must produce dwell in the host, journal, firmware
    // and NAND stages of this read/update mix.
    EXPECT_GT(stage_total[idx(obs::Stage::HostCpu)], 0u);
    EXPECT_GT(stage_total[idx(obs::Stage::JournalWait)], 0u);
    EXPECT_GT(stage_total[idx(obs::Stage::Firmware)], 0u);
    EXPECT_GT(stage_total[idx(obs::Stage::NandMedia)], 0u);
    EXPECT_GT(r.attribution.tailOps, 0u);
    EXPECT_LE(r.attribution.tailOps, r.attribution.totalOps);
    const auto slowest = attr.flightRecorder().slowest();
    ASSERT_FALSE(slowest.empty());
    for (std::size_t i = 1; i < slowest.size(); ++i)
        EXPECT_GE(slowest[i - 1].latency(), slowest[i].latency());
}

TEST(AttributionRun, LsmUpdatesChargeJournalAndDeviceStages)
{
    // The LSM appends through the shared journal, so its updates'
    // group-commit wait and device time are attributed like Check-In's
    // instead of falling through to Other.
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::AttributionScope scope(&attr);
    ExperimentConfig cfg = attributedConfig(CheckpointMode::CheckIn);
    cfg.engine.backend = EngineBackend::Lsm;
    const RunResult r = runExperiment(cfg);
    expectConservation(attr, r);
    Tick journal_wait = 0;
    Tick device = 0;
    for (const obs::OpRecord &rec : attr.ops()) {
        if (rec.cls != obs::OpClass::Update)
            continue;
        journal_wait += rec.dwell[idx(obs::Stage::JournalWait)];
        for (const obs::Stage s :
             {obs::Stage::SsdQueue, obs::Stage::Firmware,
              obs::Stage::FtlMap, obs::Stage::DramCache,
              obs::Stage::NandWait, obs::Stage::NandMedia,
              obs::Stage::GcStall, obs::Stage::Bus,
              obs::Stage::Backpressure}) {
            device += rec.dwell[idx(s)];
        }
    }
    EXPECT_GT(journal_wait, 0u);
    EXPECT_GT(device, 0u);
}

TEST(AttributionRun, LockedCheckpointsShowUpAsCheckpointStall)
{
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::AttributionScope scope(&attr);
    ExperimentConfig cfg = attributedConfig(CheckpointMode::Baseline);
    cfg.engine.lockQueriesDuringCheckpoint = true;
    cfg.workload.operationCount = 4000;
    const RunResult r = runExperiment(cfg);
    ASSERT_GT(r.checkpoints, 0u);
    Tick stall = 0;
    for (const obs::OpRecord &rec : attr.ops())
        stall += rec.dwell[idx(obs::Stage::CheckpointStall)];
    EXPECT_GT(stall, 0u);
    expectConservation(attr, r);
}

// ----------------------------------------------------------------------
// Checkpoint phase timeline
// ----------------------------------------------------------------------

TEST(AttributionRun, CheckpointTimelineMatchesCheckpointCount)
{
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::AttributionScope scope(&attr);
    ExperimentConfig cfg = attributedConfig(CheckpointMode::CheckIn);
    cfg.workload.operationCount = 6000;
    // Low byte threshold so the run crosses several checkpoints.
    cfg.engine.checkpointJournalBytes = 256 * kKiB;
    const RunResult r = runExperiment(cfg);
    ASSERT_GT(r.checkpoints, 0u);
    ASSERT_EQ(r.checkpointTimeline.size(), r.checkpoints);
    std::uint64_t expect_seq = 0;
    for (const obs::CheckpointStat &c : r.checkpointTimeline) {
        EXPECT_EQ(c.seq, expect_seq++);
        EXPECT_LE(c.startTick, c.dataDoneTick);
        EXPECT_LE(c.dataDoneTick, c.metaDoneTick);
        EXPECT_LE(c.metaDoneTick, c.endTick);
        EXPECT_EQ(c.entries, c.rawRecords + c.fullRecords +
                                 c.partialRecords + c.mergedRecords);
        const std::string trig = obs::ckptTriggerName(c.trigger);
        EXPECT_FALSE(trig.empty());
    }
    // Check-In moves data in storage: the timeline must show CoW
    // commands and remapped or copied pairs.
    std::uint64_t cow = 0;
    std::uint64_t moved = 0;
    for (const obs::CheckpointStat &c : r.checkpointTimeline) {
        cow += c.cowCommands;
        moved += c.remappedPairs + c.copiedPairs;
    }
    EXPECT_GT(cow, 0u);
    EXPECT_GT(moved, 0u);
}

TEST(AttributionRun, BaselineTimelineHasNoCowCommands)
{
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::AttributionScope scope(&attr);
    const RunResult r =
        runExperiment(attributedConfig(CheckpointMode::Baseline));
    ASSERT_GT(r.checkpointTimeline.size(), 0u);
    for (const obs::CheckpointStat &c : r.checkpointTimeline)
        EXPECT_EQ(c.cowCommands, 0u);
}

} // namespace
} // namespace checkin
