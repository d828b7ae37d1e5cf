/**
 * @file
 * Device-level power-loss rebuild tests (paper §III-G): the FTL
 * reconstructs its RAM mapping structures from the OOB area —
 * including checkpoint remaps, which were never physically
 * rewritten — and the engine then recovers on top.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "sim/rng.h"
#include "test_stack.h"

namespace checkin {
namespace {

SectorData
sectorFor(std::uint64_t tag)
{
    SectorData d;
    for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
        d.chunks[c] = mix64(tag * 4 + c + 1);
    return d;
}

// ---------------------------------------------------------------------
// FTL-level rebuild
// ---------------------------------------------------------------------

TEST(PowerLossFtl, RestoresWriteOriginMappings)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        const SectorData d = sectorFor(lpn + 1);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, lpn + 1);
    }
    ftl.flushOpenPages(0);
    const auto report = ftl.rebuildFromPowerLoss();
    EXPECT_GE(report.slotsRecovered, 64u);
    ftl.checkInvariants();
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        EXPECT_EQ(got, sectorFor(lpn + 1)) << "lpn " << lpn;
    }
}

TEST(PowerLossFtl, NewestVersionOfAnLpnWins)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData v1 = sectorFor(1);
    const SectorData v2 = sectorFor(2);
    ftl.writeSectors(5, 1, &v1, IoCause::Query, 0, 1);
    ftl.writeSectors(5, 1, &v2, IoCause::Query, 0, 2);
    ftl.flushOpenPages(0);
    ftl.rebuildFromPowerLoss();
    SectorData got;
    ftl.peekSectors(5, 1, &got);
    EXPECT_EQ(got, v2);
}

TEST(PowerLossFtl, RemapRecoveredViaOobTargetAnnotation)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    // Journal write annotated with its checkpoint target (LPN 40).
    const SectorData d = sectorFor(9);
    OobEntry ann;
    ann.version = 7;
    ann.targetLpn = 40;
    ftl.writeSectors(0, 1, &d, IoCause::Journal, 0, 7, &ann);
    // The checkpoint remap itself is a pure RAM update.
    ftl.remapUnit(0, 40, 0);
    ftl.flushOpenPages(0);

    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();
    SectorData got;
    ftl.peekSectors(40, 1, &got);
    EXPECT_EQ(got, d) << "remapped data lost by rebuild";
}

// The FTL shadows are the device's only copy of flash contents, so a
// rebuild must find every programmed token and OOB field exactly as
// written: through a program failure (its page turns unreadable and
// its slots are rescued elsewhere) and through the capacitor flush of
// partially filled pages.
TEST(PowerLossFtl, ShadowSurvivesFlushAndRebuildBitForBit)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.programFailProb = 1.0;
    fc.maxProgramFails = 1; // only the first page program fails
    FaultPlan plan(fc, 3);
    NandFlash nand(deviceNand());
    nand.setFaultPlan(&plan);
    FtlConfig cfg;
    cfg.mappingUnitBytes = 512;
    Ftl ftl(nand, cfg);

    constexpr Lpn kData = 45;
    constexpr Lpn kJournal = 100;
    constexpr Lpn kTarget = 200;
    constexpr std::uint32_t kLogs = 3;
    for (Lpn lpn = 0; lpn < kData; ++lpn) {
        const SectorData d = sectorFor(lpn + 1);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, lpn + 1);
    }
    std::vector<SectorData> logs;
    std::vector<OobEntry> ann(kLogs);
    for (std::uint32_t j = 0; j < kLogs; ++j) {
        logs.push_back(sectorFor(1000 + j));
        ann[j].version = 1000 + j;
        ann[j].targetLpn = kTarget + j;
    }
    ftl.writeSectors(kJournal, kLogs, logs.data(), IoCause::Journal, 0,
                     0, ann.data());
    for (std::uint32_t j = 0; j < kLogs; ++j)
        ftl.remapUnit(kJournal + j, kTarget + j, 0);
    ftl.flushOpenPages(0);
    ASSERT_EQ(plan.counters().programFails, 1u);
    // The flush programmed partially filled pages: programs carry
    // more slots than were ever written.
    ASSERT_LT(ftl.stats().get("ftl.slotWrites"),
              nand.stats().get("nand.programs") * ftl.slotsPerPage());

    Ppn failed = kInvalidAddr;
    for (Ppn p = 0; p < nand.config().totalPages(); ++p) {
        if (nand.isProgrammed(p) && !nand.isReadable(p)) {
            ASSERT_EQ(failed, kInvalidAddr) << "one failed page";
            failed = p;
        }
    }
    ASSERT_NE(failed, kInvalidAddr);
    // Until the power cut the shadow still holds what the failed
    // program carried (the rescue sourced from it).
    EXPECT_NE(ftl.slotOob(failed * ftl.slotsPerPage()).lpn,
              kInvalidAddr);

    const Lpn span = kTarget + kLogs;
    std::vector<SectorData> before(span);
    ftl.peekSectors(0, span, before.data());
    const auto mappings_before = ftl.scanOobMappings();

    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();

    std::vector<SectorData> after(span);
    ftl.peekSectors(0, span, after.data());
    for (Lpn lpn = 0; lpn < span; ++lpn) {
        EXPECT_EQ(after[lpn], before[lpn]) << "lpn " << lpn;
        EXPECT_EQ(ftl.isMapped(lpn),
                  lpn < kData ||
                      (lpn >= kJournal && lpn < kJournal + kLogs) ||
                      lpn >= kTarget)
            << "lpn " << lpn;
    }
    for (Lpn lpn = 0; lpn < kData; ++lpn)
        EXPECT_EQ(after[lpn], sectorFor(lpn + 1)) << "lpn " << lpn;
    for (std::uint32_t j = 0; j < kLogs; ++j) {
        EXPECT_EQ(after[kJournal + j], logs[j]);
        EXPECT_EQ(after[kTarget + j], logs[j]);
    }

    // Exactly the written LPNs have a write-origin slot, with every
    // OOB field as written (writeSeq is the host-write order).
    const auto mappings = ftl.scanOobMappings();
    EXPECT_EQ(mappings, mappings_before);
    ASSERT_EQ(mappings.size(), kData + kLogs);
    for (const auto &[lpn, slot] : mappings) {
        const OobEntry &oob = ftl.slotOob(slot);
        EXPECT_EQ(oob.lpn, lpn);
        if (lpn < kData) {
            EXPECT_EQ(oob.version, lpn + 1);
            EXPECT_EQ(oob.targetLpn, kInvalidAddr);
            EXPECT_EQ(oob.writeSeq, lpn + 1);
        } else {
            const Lpn j = lpn - kJournal;
            ASSERT_LT(j, kLogs);
            EXPECT_EQ(oob.version, 1000 + j);
            EXPECT_EQ(oob.targetLpn, kTarget + j);
            EXPECT_EQ(oob.writeSeq, kData + 1 + j);
        }
    }
    // The failed page held nothing readable: its shadow reads empty.
    for (std::uint32_t s = 0; s < ftl.slotsPerPage(); ++s) {
        const OobEntry &oob =
            ftl.slotOob(failed * ftl.slotsPerPage() + s);
        EXPECT_EQ(oob.lpn, kInvalidAddr);
        EXPECT_EQ(oob.writeSeq, 0u);
    }
}

TEST(PowerLossFtl, RemapSurvivesEvenAfterJournalTrim)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData d = sectorFor(11);
    OobEntry ann;
    ann.version = 3;
    ann.targetLpn = 50;
    ftl.writeSectors(0, 1, &d, IoCause::Journal, 0, 3, &ann);
    ftl.remapUnit(0, 50, 0);
    ftl.trimSectors(0, 1); // journal log deleted after checkpoint
    ftl.flushOpenPages(0);

    ftl.rebuildFromPowerLoss();
    SectorData got;
    ftl.peekSectors(50, 1, &got);
    EXPECT_EQ(got, d);
}

TEST(PowerLossFtl, NewerDirectWriteBeatsStaleAnnotation)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData journal_v3 = sectorFor(3);
    const SectorData direct_v5 = sectorFor(5);
    OobEntry ann;
    ann.version = 3;
    ann.targetLpn = 60;
    ftl.writeSectors(0, 1, &journal_v3, IoCause::Journal, 0, 3,
                     &ann);
    ftl.remapUnit(0, 60, 0);
    // A later (higher-version) direct write of the target.
    ftl.writeSectors(60, 1, &direct_v5, IoCause::Checkpoint, 0, 5);
    ftl.flushOpenPages(0);

    ftl.rebuildFromPowerLoss();
    SectorData got;
    ftl.peekSectors(60, 1, &got);
    EXPECT_EQ(got, direct_v5);
}

TEST(PowerLossFtl, RebuildKeepsDeviceOperable)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    cfg.exportedRatio = 0.7;
    Ftl ftl(nand, cfg);
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        const SectorData d = sectorFor(std::uint64_t(i) + 100);
        ftl.writeSectors(rng.nextBounded(256), 1, &d, IoCause::Query,
                         0, std::uint64_t(i) + 1);
    }
    ftl.flushOpenPages(0);
    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();
    // Keep writing; GC must still function on rebuilt state.
    for (int i = 0; i < 5000; ++i) {
        const SectorData d = sectorFor(std::uint64_t(i) + 9000);
        ftl.writeSectors(rng.nextBounded(256), 1, &d, IoCause::Query,
                         0, std::uint64_t(i) + 6000);
    }
    ftl.checkInvariants();
}

// ---------------------------------------------------------------------
// Full-stack: SPOR + firmware rebuild + engine recovery
// ---------------------------------------------------------------------

class PowerLossStack
    : public ::testing::TestWithParam<CheckpointMode>
{
};

TEST_P(PowerLossStack, NoCommittedUpdateLostThroughFirmwareRebuild)
{
    TestStack<> s(stackConfig(GetParam()), 384);

    Rng rng(5);
    std::map<std::uint64_t, std::uint32_t> committed;
    for (int i = 0; i < 600; ++i) {
        const std::uint64_t key = rng.nextBounded(300);
        s.engine->update(
            key, std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&committed, key, &s](const QueryResult &) {
                committed[key] = s.engine->keymap()[key].version;
            });
        if (i == 300)
            s.engine->requestCheckpoint();
    }
    s.eq.run();

    // Host crash + device power loss with SPOR + firmware rebuild.
    const auto report = s.node.crash(CrashModel::PowerCut);
    EXPECT_GT(report.slotsRecovered, 0u);

    s.recover();
    for (const auto &[key, version] : committed) {
        EXPECT_GE(s.engine->keymap()[key].version, version)
            << "lost key " << key;
    }
    s.engine->verifyAllKeys();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PowerLossStack,
    ::testing::Values(CheckpointMode::Baseline, CheckpointMode::IscC,
                      CheckpointMode::CheckIn),
    [](const ::testing::TestParamInfo<CheckpointMode> &info) {
        switch (info.param) {
          case CheckpointMode::Baseline: return "Baseline";
          case CheckpointMode::IscC: return "IscC";
          case CheckpointMode::CheckIn: return "CheckIn";
          default: return "Other";
        }
    });

} // namespace
} // namespace checkin
