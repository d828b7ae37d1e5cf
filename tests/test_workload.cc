/**
 * @file
 * Tests for the YCSB workload generator and client pool.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <utility>

#include "harness/experiment.h"
#include "harness/presets.h"
#include "test_stack.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace checkin {
namespace {

TEST(WorkloadSpec, PresetMixesSumToOne)
{
    for (const WorkloadSpec &s :
         {WorkloadSpec::a(), WorkloadSpec::b(), WorkloadSpec::c(),
          WorkloadSpec::f(), WorkloadSpec::wo()}) {
        EXPECT_NEAR(s.mix.read + s.mix.update +
                        s.mix.readModifyWrite,
                    1.0, 1e-9)
            << s.name;
    }
}

TEST(WorkloadSpec, PresetShapes)
{
    EXPECT_DOUBLE_EQ(WorkloadSpec::a().mix.read, 0.5);
    EXPECT_DOUBLE_EQ(WorkloadSpec::a().mix.update, 0.5);
    EXPECT_DOUBLE_EQ(WorkloadSpec::f().mix.readModifyWrite, 0.5);
    EXPECT_DOUBLE_EQ(WorkloadSpec::wo().mix.update, 1.0);
    EXPECT_DOUBLE_EQ(WorkloadSpec::c().mix.read, 1.0);
}

TEST(WorkloadSpec, SizePatternsAreValid)
{
    for (std::uint32_t p = 1; p <= 4; ++p) {
        const auto sizes = WorkloadSpec::sizePattern(p);
        EXPECT_FALSE(sizes.empty());
        for (std::uint32_t s : sizes) {
            EXPECT_GE(s, 128u);
            EXPECT_LE(s, 4096u);
        }
    }
    EXPECT_THROW(WorkloadSpec::sizePattern(0), std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::sizePattern(5), std::invalid_argument);
}

TEST(WorkloadGenerator, MixProportionsRespected)
{
    WorkloadSpec spec = WorkloadSpec::a();
    WorkloadGenerator gen(spec, 1000);
    std::map<WorkloadGenerator::OpType, int> counts;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().type];
    EXPECT_NEAR(double(counts[WorkloadGenerator::OpType::Read]) / n,
                0.5, 0.02);
    EXPECT_NEAR(double(counts[WorkloadGenerator::OpType::Update]) / n,
                0.5, 0.02);
    EXPECT_EQ(counts[WorkloadGenerator::OpType::Rmw], 0);
}

TEST(WorkloadGenerator, WorkloadFEmitsRmw)
{
    WorkloadGenerator gen(WorkloadSpec::f(), 1000);
    int rmw = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i)
        rmw += gen.next().type == WorkloadGenerator::OpType::Rmw;
    EXPECT_NEAR(double(rmw) / n, 0.5, 0.02);
}

TEST(WorkloadGenerator, KeysInRange)
{
    WorkloadGenerator gen(WorkloadSpec::wo(), 123);
    for (int i = 0; i < 10'000; ++i)
        ASSERT_LT(gen.next().key, 123u);
}

TEST(WorkloadGenerator, UpdateSizesComeFromSpec)
{
    WorkloadSpec spec = WorkloadSpec::wo();
    spec.valueSizes = {256, 1024};
    WorkloadGenerator gen(spec, 100);
    for (int i = 0; i < 1000; ++i) {
        const auto op = gen.next();
        EXPECT_TRUE(op.valueBytes == 256 || op.valueBytes == 1024);
    }
}

TEST(WorkloadGenerator, DeterministicForSeed)
{
    WorkloadSpec spec = WorkloadSpec::a();
    spec.seed = 777;
    WorkloadGenerator g1(spec, 500), g2(spec, 500);
    for (int i = 0; i < 1000; ++i) {
        const auto a = g1.next();
        const auto b = g2.next();
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(int(a.type), int(b.type));
        EXPECT_EQ(a.valueBytes, b.valueBytes);
    }
}

TEST(WorkloadGenerator, ZipfianConcentratesTraffic)
{
    WorkloadSpec spec = WorkloadSpec::wo();
    spec.distribution = Distribution::Zipfian;
    WorkloadGenerator gen(spec, 10'000);
    std::map<std::uint64_t, int> hist;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        ++hist[gen.next().key];
    // Distinct keys touched under zipf should be far fewer than n
    // and far fewer than under uniform.
    EXPECT_LT(hist.size(), 9'000u);
    int hottest = 0;
    for (const auto &[k, c] : hist)
        hottest = std::max(hottest, c);
    EXPECT_GT(hottest, n / 200);
}

TEST(WorkloadGenerator, UniformSpreadsTraffic)
{
    WorkloadSpec spec = WorkloadSpec::wo();
    spec.distribution = Distribution::Uniform;
    WorkloadGenerator gen(spec, 1000);
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 50'000; ++i)
        ++hist[gen.next().key];
    EXPECT_GT(hist.size(), 990u);
}

TEST(ClientStats, CheckpointWindowsPartitionAllOps)
{
    // Every completed op is classified into exactly one of the two
    // checkpoint-window histograms, and the read/write split inside
    // the checkpoint window partitions it the same way.
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 6000;
    cfg.threads = 8;
    // Low byte threshold so the run straddles several checkpoints.
    cfg.engine.checkpointJournalBytes = 256 * kKiB;
    const RunResult r = runExperiment(cfg);
    ASSERT_GT(r.checkpoints, 0u);
    const ClientStats &c = r.client;
    EXPECT_EQ(c.all.count(), c.opsCompleted);
    EXPECT_EQ(c.all.count(),
              c.duringCheckpoint.count() +
                  c.outsideCheckpoint.count());
    EXPECT_GT(c.duringCheckpoint.count(), 0u);
    EXPECT_GT(c.outsideCheckpoint.count(), 0u);
    EXPECT_EQ(c.duringCheckpoint.count(),
              c.readsDuringCheckpoint.count() +
                  c.writesDuringCheckpoint.count());
    // Sums partition along with the counts.
    EXPECT_EQ(c.all.sum(), c.duringCheckpoint.sum() +
                               c.outsideCheckpoint.sum());
}

/** The op source is the only difference between a trace replay and a
 *  generator run over the same spec. */
TEST(ClientPool, TraceSourceMatchesGeneratorSource)
{
    WorkloadSpec spec = WorkloadSpec::a();
    spec.operationCount = 3000;
    const Trace trace = Trace::generate(spec, 300, 3000);
    const ExperimentConfig cfg =
        stackConfig(CheckpointMode::CheckIn, 300, 128 * kKiB);
    TestStack<> a(cfg, 256), b(cfg, 256);
    ClientPool gen(a.ctx, *a.engine, spec, 16);
    ClientPool replay(b.ctx, *b.engine, trace, 16);
    for (auto [s, pool] : {std::pair{&a, &gen}, std::pair{&b, &replay}}) {
        s->engine->start();
        pool->start();
        while (!pool->done())
            ASSERT_TRUE(s->eq.step()) << "deadlock";
    }
    EXPECT_GT(a.engine->checkpointDurations().size(), 0u);
    EXPECT_EQ(replay.stats().opsCompleted, 3000u);
    EXPECT_TRUE(replay.stats() == gen.stats());
    for (std::uint64_t k = 0; k < 300; ++k)
        EXPECT_EQ(b.engine->keymap()[k].version,
                  a.engine->keymap()[k].version);
}

TEST(ClientPool, RejectsZeroSlotsWhileOpsRemain)
{
    TestStack<> s(stackConfig(CheckpointMode::CheckIn), 256);
    EXPECT_THROW(ClientPool(s.ctx, *s.engine, WorkloadSpec::a(), 0),
                 std::invalid_argument);
    EXPECT_TRUE(ClientPool(s.ctx, *s.engine, Trace{}, 0).done());
}

TEST(WorkloadGenerator, RejectsEmptyKeySpace)
{
    for (WorkloadSpec spec :
         {WorkloadSpec::a(), WorkloadSpec::d(), WorkloadSpec::wo()}) {
        for (const Distribution d :
             {Distribution::Uniform, Distribution::Zipfian,
              Distribution::Latest}) {
            spec.distribution = d;
            EXPECT_THROW(WorkloadGenerator(spec, 0),
                         std::invalid_argument);
        }
    }
}

TEST(WorkloadGenerator, InitialSizeDeterministic)
{
    WorkloadSpec spec = WorkloadSpec::a();
    WorkloadGenerator g1(spec, 100), g2(spec, 100);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(g1.initialSize(k), g2.initialSize(k));
}

} // namespace
} // namespace checkin
