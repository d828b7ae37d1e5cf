/**
 * @file
 * Full-stack integration tests through the experiment harness:
 * every mode x workload combination runs end-to-end, completes all
 * operations, and passes full content verification (done inside
 * runExperiment); cross-mode orderings match the paper's claims.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiment.h"
#include "harness/presets.h"

namespace checkin {
namespace {

ExperimentConfig
tinyConfig(CheckpointMode mode, const WorkloadSpec &wl)
{
    ExperimentConfig c = presets::small();
    c.engine.mode = mode;
    c.engine.recordCount = 2000;
    c.workload = wl;
    c.workload.operationCount = 6'000;
    c.threads = 16;
    c.engine.checkpointInterval = 10 * kMsec;
    c.engine.checkpointJournalBytes = 512 * kKiB;
    c.engine.journalHalfBytes = 4 * kMiB;
    return c;
}

using ModeWorkload = std::tuple<CheckpointMode, const char *>;

class ModeWorkloadMatrix
    : public ::testing::TestWithParam<ModeWorkload>
{
  protected:
    static WorkloadSpec
    workloadByName(const std::string &name)
    {
        if (name == "a")
            return WorkloadSpec::a();
        if (name == "f")
            return WorkloadSpec::f();
        return WorkloadSpec::wo();
    }
};

TEST_P(ModeWorkloadMatrix, RunsToCompletionAndVerifies)
{
    const auto [mode, wl_name] = GetParam();
    const RunResult r =
        runExperiment(tinyConfig(mode, workloadByName(wl_name)));
    EXPECT_EQ(r.client.opsCompleted, 6'000u);
    EXPECT_GT(r.throughputOps, 0.0);
    EXPECT_GT(r.client.all.mean(), 0.0);
    EXPECT_GT(r.checkpoints, 0u);
    // Flash activity happened and was attributed.
    EXPECT_GT(r.nandPrograms, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ModeWorkloadMatrix,
    ::testing::Combine(
        ::testing::Values(CheckpointMode::Baseline,
                          CheckpointMode::IscA, CheckpointMode::IscB,
                          CheckpointMode::IscC,
                          CheckpointMode::CheckIn),
        ::testing::Values("a", "f", "wo")),
    [](const ::testing::TestParamInfo<ModeWorkload> &info) {
        std::string name;
        switch (std::get<0>(info.param)) {
          case CheckpointMode::Baseline: name = "Baseline"; break;
          case CheckpointMode::IscA: name = "IscA"; break;
          case CheckpointMode::IscB: name = "IscB"; break;
          case CheckpointMode::IscC: name = "IscC"; break;
          case CheckpointMode::CheckIn: name = "CheckIn"; break;
        }
        return name + "_" + std::get<1>(info.param);
    });

TEST(PaperClaims, CheckInBeatsBaselineOnRedundantWrites)
{
    const RunResult base = runExperiment(
        tinyConfig(CheckpointMode::Baseline, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    // Paper: -94.3 %. Require at least a 4x reduction here.
    EXPECT_LT(ours.redundantBytes * 4, base.redundantBytes);
    // And overall flash programs must drop.
    EXPECT_LT(ours.nandPrograms, base.nandPrograms);
}

TEST(PaperClaims, CheckInShortensCheckpointTime)
{
    const RunResult base = runExperiment(
        tinyConfig(CheckpointMode::Baseline, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    EXPECT_LT(ours.avgCheckpointMs, base.avgCheckpointMs);
}

TEST(PaperClaims, CheckInImprovesTailLatency)
{
    const RunResult base = runExperiment(
        tinyConfig(CheckpointMode::Baseline, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    EXPECT_LT(ours.client.all.quantile(0.999),
              base.client.all.quantile(0.999));
}

TEST(PaperClaims, CheckInRemapsWhereIscCCopies)
{
    const RunResult iscc = runExperiment(
        tinyConfig(CheckpointMode::IscC, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    EXPECT_GT(ours.remaps, iscc.remaps);
    EXPECT_LT(ours.redundantBytes, iscc.redundantBytes);
}

TEST(PaperClaims, AlignedJournalingCostsBoundedSpace)
{
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::wo()));
    // Bucketing to unit/4 steps can cost at most 3x on pathological
    // inputs; for the default size mix it stays well under 40 %.
    EXPECT_GE(ours.journalSpaceOverhead(), 0.0);
    EXPECT_LT(ours.journalSpaceOverhead(), 0.40);
}

TEST(Harness, DeltaStatsExcludeLoad)
{
    ExperimentConfig cfg =
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::c());
    cfg.workload.operationCount = 500;
    const RunResult r = runExperiment(cfg);
    // A read-only workload with no checkpoints writes almost nothing
    // (map flushes may still occur).
    EXPECT_EQ(r.redundantSlotWrites, 0u);
    EXPECT_EQ(r.client.opsCompleted, 500u);
    EXPECT_GT(r.hostReadSectors, 0u);
}

TEST(Harness, ResolvedMappingUnitFollowsMode)
{
    ExperimentConfig c;
    c.engine.mode = CheckpointMode::Baseline;
    EXPECT_EQ(c.resolvedMappingUnit(), c.nand.pageBytes);
    c.engine.mode = CheckpointMode::CheckIn;
    EXPECT_EQ(c.resolvedMappingUnit(), 512u);
    c.mappingUnitOverride = 2048;
    EXPECT_EQ(c.resolvedMappingUnit(), 2048u);

    // The paper's pairing over all five modes: page mapping for the
    // baseline and the two early ISC designs, 512 B sub-page mapping
    // for ISC-C and Check-In. The LSM backend journals and remaps at
    // sector granularity whatever mode tags the config.
    struct Case
    {
        CheckpointMode mode;
        std::uint32_t checkinUnit;
    };
    const std::uint32_t page = c.nand.pageBytes;
    for (const Case k : {Case{CheckpointMode::Baseline, page},
                         Case{CheckpointMode::IscA, page},
                         Case{CheckpointMode::IscB, page},
                         Case{CheckpointMode::IscC, 512},
                         Case{CheckpointMode::CheckIn, 512}}) {
        ExperimentConfig m;
        m.engine.mode = k.mode;
        m.engine.backend = EngineBackend::CheckIn;
        EXPECT_EQ(m.resolvedMappingUnit(), k.checkinUnit)
            << checkpointModeName(k.mode);
        m.engine.backend = EngineBackend::Lsm;
        EXPECT_EQ(m.resolvedMappingUnit(), 512u)
            << "lsm " << checkpointModeName(k.mode);
        m.mappingUnitOverride = 1024;
        EXPECT_EQ(m.resolvedMappingUnit(), 1024u);
    }
}

} // namespace
} // namespace checkin
