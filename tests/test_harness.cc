/**
 * @file
 * Tests for the experiment harness and the table printer.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "cluster/cluster_config.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "harness/table.h"
#include "test_stack.h"

namespace checkin {
namespace {

TEST(TablePrinter, AlignsColumnsAndUnderlinesHeader)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "123456"});
    const std::string out = t.render();
    // Header, underline, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(std::uint64_t(42)), "42");
    EXPECT_EQ(Table::percent(0.123, 1), "12.3 %");
    EXPECT_EQ(Table::percent(-0.05, 1), "-5.0 %");
}

TEST(Harness, SmallScalePresetIsRunnable)
{
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 1000;
    cfg.threads = 8;
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.client.opsCompleted, 1000u);
    EXPECT_GT(r.throughputOps, 0.0);
    EXPECT_GT(r.simSpan, 0u);
    // The merged raw stats include every layer.
    EXPECT_GT(r.raw.count("nand.programs"), 0u);
    EXPECT_GT(r.raw.count("engine.updates"), 0u);
    EXPECT_GT(r.raw.count("ssd.cmd.write"), 0u);
}

TEST(Harness, JournalSpaceOverheadMath)
{
    RunResult r;
    r.journalPayloadBytes = 1000;
    r.journalChunksStored = 10;
    // Chunk size is recorded per run, not assumed: with no recorded
    // size the overhead is undefined and reads as zero.
    EXPECT_EQ(r.journalSpaceOverhead(), 0.0);
    r.journalChunkBytes = 128; // 10 chunks = 1280 bytes
    EXPECT_NEAR(r.journalSpaceOverhead(), 0.28, 1e-9);
    r.journalChunkBytes = 256; // 10 chunks = 2560 bytes
    EXPECT_NEAR(r.journalSpaceOverhead(), 1.56, 1e-9);
    r.journalPayloadBytes = 0;
    EXPECT_EQ(r.journalSpaceOverhead(), 0.0);
}

TEST(Harness, DeterministicForSameConfig)
{
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 2000;
    cfg.threads = 8;
    const RunResult a = runExperiment(cfg);
    const RunResult b = runExperiment(cfg);
    EXPECT_EQ(a.client.opsCompleted, b.client.opsCompleted);
    EXPECT_EQ(a.simSpan, b.simSpan);
    EXPECT_EQ(a.nandPrograms, b.nandPrograms);
    EXPECT_EQ(a.redundantSlotWrites, b.redundantSlotWrites);
    EXPECT_EQ(a.client.all.quantile(0.999),
              b.client.all.quantile(0.999));
}

TEST(Harness, SeedChangesTheRun)
{
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 2000;
    cfg.threads = 8;
    const RunResult a = runExperiment(cfg);
    cfg.workload.seed = 777;
    const RunResult b = runExperiment(cfg);
    EXPECT_NE(a.simSpan, b.simSpan);
}

// Every value `checkin_cli --help` lists parses to its enum, and
// workload names cover all seven presets (a b c d e f wo).
TEST(Presets, NameParsersAcceptEveryListedValue)
{
    EXPECT_EQ(presets::parseEngineBackend("checkin"),
              EngineBackend::CheckIn);
    EXPECT_EQ(presets::parseEngineBackend("lsm"), EngineBackend::Lsm);

    const std::pair<const char *, CheckpointMode> modes[] = {
        {"baseline", CheckpointMode::Baseline},
        {"isc-a", CheckpointMode::IscA},
        {"isc-b", CheckpointMode::IscB},
        {"isc-c", CheckpointMode::IscC},
        {"checkin", CheckpointMode::CheckIn}};
    for (const auto &[name, mode] : modes)
        EXPECT_EQ(presets::parseCheckpointMode(name), mode) << name;

    const std::pair<const char *, WorkloadSpec> workloads[] = {
        {"a", WorkloadSpec::a()}, {"b", WorkloadSpec::b()},
        {"c", WorkloadSpec::c()}, {"d", WorkloadSpec::d()},
        {"e", WorkloadSpec::e()}, {"f", WorkloadSpec::f()},
        {"wo", WorkloadSpec::wo()}};
    for (const auto &[name, spec] : workloads)
        EXPECT_EQ(presets::parseWorkload(name).name, spec.name) << name;

    const std::pair<const char *, ArrivalProcess> processes[] = {
        {"poisson", ArrivalProcess::Poisson},
        {"mmpp", ArrivalProcess::Mmpp},
        {"diurnal", ArrivalProcess::Diurnal}};
    for (const auto &[name, proc] : processes)
        EXPECT_EQ(presets::parseArrivalProcess(name), proc) << name;

    const std::pair<const char *, CkptCoordination> coordinations[] = {
        {"independent", CkptCoordination::Independent},
        {"synchronized", CkptCoordination::Synchronized},
        {"staggered", CkptCoordination::Staggered}};
    for (const auto &[name, coord] : coordinations)
        EXPECT_EQ(presets::parseCoordination(name), coord) << name;

    EXPECT_EQ(presets::parseCheckpointPolicy("fixed"),
              CheckpointPolicyKind::Fixed);
    EXPECT_EQ(presets::parseCheckpointPolicy("adaptive"),
              CheckpointPolicyKind::Adaptive);
}

TEST(Presets, NameParsersRejectUnknownValues)
{
    EXPECT_THROW(presets::parseEngineBackend("rocksdb"),
                 std::invalid_argument);
    EXPECT_THROW(presets::parseCheckpointMode("isc-d"),
                 std::invalid_argument);
    EXPECT_THROW(presets::parseCheckpointMode("Check-In"),
                 std::invalid_argument);
    EXPECT_THROW(presets::parseWorkload("g"), std::invalid_argument);
    EXPECT_THROW(presets::parseWorkload("A"), std::invalid_argument);
    EXPECT_THROW(presets::parseArrivalProcess("bursty"),
                 std::invalid_argument);
    // Coordination and checkpoint-policy names are disjoint sets.
    EXPECT_THROW(presets::parseCoordination("adaptive"),
                 std::invalid_argument);
    EXPECT_THROW(presets::parseCheckpointPolicy("synchronized"),
                 std::invalid_argument);
    try {
        presets::parseCheckpointMode("");
        FAIL() << "empty mode accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "baseline|isc-a|isc-b|isc-c|checkin"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Presets, ParseCountAcceptsOnlyInRangeDecimals)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    struct Case
    {
        const char *text;
        std::uint64_t lo, hi;
        bool ok;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"0", 0, kMax, true, 0},
        {"20000", 0, kMax, true, 20000},
        {"007", 0, kMax, true, 7},
        {"18446744073709551615", 0, kMax, true, kMax},
        {"18446744073709551616", 0, kMax, false, 0}, // overflow
        {"99999999999999999999", 0, kMax, false, 0},
        {"-5", 0, kMax, false, 0},
        {"+5", 0, kMax, false, 0},
        {"abc", 0, kMax, false, 0},
        {"12abc", 0, kMax, false, 0},
        {"1e3", 0, kMax, false, 0},
        {"0x10", 0, kMax, false, 0},
        {" 5", 0, kMax, false, 0},
        {"5 ", 0, kMax, false, 0},
        {"", 0, kMax, false, 0},
        {"0", 1, kMax, false, 0}, // below lo (--threads 0)
        {"1", 1, 4, true, 1},
        {"4", 1, 4, true, 4},
        {"9", 1, 4, false, 0}, // above hi (--pattern 9)
        {"4294967295", 1, 4294967295u, true, 4294967295u},
        {"4294967296", 1, 4294967295u, false, 0}, // u32 narrowing
    };
    for (const Case &c : cases) {
        if (c.ok) {
            EXPECT_EQ(presets::parseCount("--n", c.text, c.lo, c.hi),
                      c.value)
                << "'" << c.text << "'";
        } else {
            EXPECT_THROW(presets::parseCount("--n", c.text, c.lo, c.hi),
                         std::invalid_argument)
                << "'" << c.text << "'";
        }
    }
}

// ---------------------------------------------------------------------
// NodeStack: the one build/load/baseline/crash sequence
// ---------------------------------------------------------------------

TEST(NodeStack, DeviceTakesTheResolvedMappingUnit)
{
    for (const CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::IscA,
          CheckpointMode::IscC, CheckpointMode::CheckIn}) {
        const ExperimentConfig cfg = stackConfig(mode, 200);
        SimContext ctx;
        NodeStack node(ctx, cfg);
        EXPECT_EQ(node.ssd().ftl().mappingUnitBytes(),
                  cfg.resolvedMappingUnit())
            << checkpointModeName(mode);
        EXPECT_EQ(ctx.faults(), &node.faults());
    }
}

TEST(NodeStack, BaselineExcludesTheLoad)
{
    TestStack<> s(stackConfig(CheckpointMode::CheckIn, 200), 384);
    EXPECT_TRUE(s.eq.empty());
    EXPECT_GT(statOr0(s.node.stats(), "nand.programs"), 0u);
    for (const auto &[key, delta] : s.node.deltasSinceLoad())
        EXPECT_EQ(delta, 0u) << key;
    EXPECT_EQ(s.node.checkpointsSinceLoad().count, 0u);

    for (std::uint64_t k = 0; k < 50; ++k)
        s.engine->update(k, 512, [](const QueryResult &) {});
    s.eq.run();
    s.engine->requestCheckpoint();
    s.eq.run();
    const StatMap d = s.node.deltasSinceLoad();
    EXPECT_EQ(statOr0(d, "engine.updates"), 50u);
    const CheckpointTally t = s.node.checkpointsSinceLoad();
    EXPECT_EQ(t.count, 1u);
    EXPECT_GT(t.avgMs, 0.0);
    EXPECT_EQ(t.avgMs, t.maxMs);
}

TEST(NodeStack, CrashModelsDifferOnlyInTheDevice)
{
    TestStack<> s(stackConfig(CheckpointMode::CheckIn, 200), 256);
    for (std::uint64_t k = 0; k < 50; ++k)
        s.engine->update(k, 512, [](const QueryResult &) {});
    s.eq.run();

    // A host restart leaves the device alone: no SPOR report.
    const Ftl::RebuildReport host = s.node.crash(CrashModel::HostRestart);
    EXPECT_EQ(host.slotsRecovered, 0u);
    EXPECT_EQ(s.ssd->stats().get("ssd.powerLosses"), 0u);
    EXPECT_EQ(s.recover().catalogKeys, 200u);
    EXPECT_EQ(s.engine->keymap()[7].version, 2u);

    // A power cut rebuilds the device mapping from OOB first.
    s.engine->update(7, 256, [](const QueryResult &) {});
    s.eq.run();
    const Ftl::RebuildReport cut = s.node.crash(CrashModel::PowerCut);
    EXPECT_GT(cut.slotsRecovered, 0u);
    EXPECT_EQ(s.ssd->stats().get("ssd.powerLosses"), 1u);
    s.recover();
    EXPECT_EQ(s.engine->keymap()[7].version, 3u);
    EXPECT_EQ(s.engine->verifyAllKeys(), 200u);
}

} // namespace
} // namespace checkin
