/**
 * @file
 * LSM StorageEngine backend: memtable index + the shared journal as
 * its WAL, immutable runs in the data area, and leveled compaction
 * whose merges are offloaded to the ISCE.
 */

#ifndef CHECKIN_ENGINE_LSM_LSM_ENGINE_H_
#define CHECKIN_ENGINE_LSM_LSM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/engine_config.h"
#include "engine/journaled_engine.h"
#include "engine/lsm/lsm_layout.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * The LSM StorageEngine backend (`lsm` behind EngineConfig::backend).
 *
 * Write path: updates append through the shared JournalManager in
 * its unit-aligned record layout (group commit, one write in
 * flight); every WAL unit carries an OOB annotation naming its L0
 * destination so remap promotions stay durable across power loss.
 * A "checkpoint" is a memtable flush: the frozen half is promoted
 * wholesale into its pre-assigned L0 region
 * with identity-offset CheckpointRemap pairs (zero data movement),
 * the manifest is persisted, and the half is released. Once
 * kLsmCompactRuns runs accumulate, a compaction folds L0 plus the
 * current L1 into the other L1 ping using force-copy CoW pairs — the
 * merge runs entirely inside the device.
 *
 * Read path: every key has at most one serving location (WAL, L0, or
 * L1); GETs issue a single read there. Tombstones are carried into L1
 * so version ordering survives trimmed-WAL resurrection after a
 * sudden power loss rebuild.
 */
class LsmEngine : public JournaledEngine
{
  public:
    LsmEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg);

    void load(const std::function<std::uint32_t(std::uint64_t)>
                  &size_of) override;
    RecoveryInfo recover() override;

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    const LsmLayout &layout() const { return layout_; }

    std::uint32_t
    committedVersion(std::uint64_t key) const override
    {
        return keymap_[key].version;
    }

    std::uint64_t verifyAllKeys() const override;

  private:
    /** Where a record copy lives. */
    struct Loc
    {
        enum class Area : std::uint8_t
        {
            None,
            Wal, //!< idx = half
            L0,  //!< idx = region
            L1,  //!< idx = ping
        };
        Area area = Area::None;
        std::uint8_t idx = 0;
        std::uint64_t unitOff = 0;
    };

    /** Per-key memtable/index state. */
    struct KeyState
    {
        std::uint32_t version = 0; //!< committed (ack-durable)
        std::uint32_t assignedVersion = 0;
        std::uint32_t chunks = 0; //!< 0 = deleted
        Loc loc;                  //!< serving copy
        /** Newest data-area (L0/L1) copy — the compaction input;
         *  dataChunks == 0 marks a tombstone copy. */
        std::uint32_t dataVersion = 0;
        std::uint32_t dataChunks = 0;
        Loc dataLoc;
    };

    /** One record movement of a compaction plan. */
    struct CompactMove
    {
        std::uint64_t key = 0;
        std::uint32_t version = 0;
        std::uint32_t chunks = 0;
        Lba srcLba = 0;
        std::uint64_t dstUnitOff = 0;
        std::uint32_t units = 0;
    };

    /** Decoded manifest state. */
    struct Manifest
    {
        bool valid = false;
        std::uint8_t ping = 0;
        std::uint64_t globalSeq = 0;
        std::uint64_t regionUsedUnits[kLsmL0Regions] = {};
        std::uint64_t l1UsedUnits[2] = {};
    };

    LsmEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg,
              const LsmLayout &layout);

    std::uint32_t recordUnits(std::uint32_t chunks) const;
    Lba lbaOf(const Loc &loc) const;

    // Journaled-engine hooks.
    void doGet(std::uint64_t key, QueryCb cb) override;
    /** L1 residents coalesce into one sequential read; WAL and L0
     *  residents are fetched individually. */
    void doScan(std::uint64_t start_key, std::uint32_t count,
                QueryCb cb) override;
    std::uint32_t
    assignVersion(std::uint64_t key) override
    {
        return ++keymap_[key].assignedVersion;
    }
    /** Every WAL unit names its L0 destination (identity offset into
     *  the half's region) under a fresh global stamp. */
    bool annotateRecord(const JmtEntry &e, OobEntry *unit) override;
    void
    onRecordCommitted(const JmtEntry &e) override
    {
        halfRecords_[e.half].push_back(e);
    }
    void applyCommit(const JmtEntry &e, bool in_batch) override;
    std::size_t
    journalIndexSize() const override
    {
        return journal_.logsInActiveHalf();
    }
    bool
    hasCheckpointWork() const override
    {
        return journal_.logsInActiveHalf() > 0;
    }
    /** A memtable flush: promote the frozen WAL half into L0. */
    void startCheckpoint() override;
    /** The flush trigger counts value bytes, not padded units. */
    std::uint64_t
    policyLevelBytes() const override
    {
        return journal_.activePayloadBytes();
    }

    // Flush (checkpoint) path.
    void onJournalQuiesced();
    void onFlushDataDone(std::uint8_t half, std::uint32_t region);
    std::uint32_t reserveRegion();

    // Compaction.
    std::vector<CompactMove> planCompaction() const;
    void startCompaction();
    void applyCompaction(const std::vector<CompactMove> &moves,
                         std::uint8_t new_ping);
    void compactionTrims(std::uint8_t old_ping,
                         const std::vector<std::uint32_t> &regions,
                         std::uint64_t old_l1_units,
                         std::function<void(Tick)> cb);

    // Manifest + recovery.
    Command buildManifestCommand();
    Manifest readManifest() const;
    void verifyKeyContent(std::uint64_t key,
                          const KeyState &st) const;

    LsmLayout layout_;
    std::vector<KeyState> keymap_;

    /** Device-durable OOB version stamps: a single monotone counter
     *  shared by every write/copy so the SPOR rebuild's newest-wins
     *  arbitration orders slots across keys. Token content still
     *  carries per-key versions. */
    std::uint64_t globalSeq_ = 1;

    /** Records committed to each WAL half, in append order (the
     *  flush's promotion list); cleared when the half is freed. */
    std::vector<JmtEntry> halfRecords_[2];
    /** L0 region each WAL half promotes into. */
    std::uint32_t halfRegion_[2] = {0, 0};

    // L0 / L1 state.
    bool regionBusy_[kLsmL0Regions] = {};
    std::uint64_t regionUsedUnits_[kLsmL0Regions] = {};
    std::uint32_t usedRuns_ = 0;
    std::uint8_t ping_ = 0;
    std::uint64_t l1UsedUnits_[2] = {0, 0};
};

} // namespace checkin

#endif // CHECKIN_ENGINE_LSM_LSM_ENGINE_H_
