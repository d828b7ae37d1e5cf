/**
 * @file
 * The storage engine (paper Fig 5 host side): query interface,
 * key-value mapping, journaling + checkpointing orchestration, and
 * crash recovery.
 */

#ifndef CHECKIN_ENGINE_KV_ENGINE_H_
#define CHECKIN_ENGINE_KV_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/checkpoint.h"
#include "engine/engine_config.h"
#include "engine/host_cache.h"
#include "engine/journal.h"
#include "engine/journaled_engine.h"
#include "engine/keymap.h"
#include "engine/layout.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * The checkpoint-journal storage engine (paper Fig 5 host side) —
 * the `checkin` StorageEngine backend.
 *
 * Construct, then call either load() (fresh store) or recover()
 * (rebuild from an existing device after a crash), then start() to
 * arm the checkpoint timer, then issue queries.
 */
class KvEngine : public JournaledEngine
{
  public:
    KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg);

    /**
     * Populate the data area and catalog with initial values
     * (version 1). @p size_of gives each key's value size.
     */
    void load(const std::function<std::uint32_t(std::uint64_t)>
                  &size_of) override;

    /**
     * Rebuild the engine state from the device: restore the keymap
     * from the catalog, replay journal logs newer than the catalog,
     * checkpoint them, and leave a clean store.
     */
    RecoveryInfo recover() override;

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    const DiskLayout &layout() const { return layout_; }
    const Keymap &keymap() const { return keymap_; }
    /** Entries currently in the JMT (latest versions). */
    std::size_t jmtSize() const { return jmt_.size(); }

    std::uint32_t
    committedVersion(std::uint64_t key) const override
    {
        return keymap_[key].version;
    }

    /**
     * Functional full-store verification: read every key's committed
     * value through peek and check its content tokens.
     * @return number of keys verified.
     * @throws std::runtime_error on any content mismatch.
     */
    std::uint64_t verifyAllKeys() const override;

  private:
    KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg,
             const DiskLayout &layout);

    void doGet(std::uint64_t key, QueryCb cb) override;
    /** Data-area resident keys are fetched as one sequential read;
     *  journal-resident keys are fetched individually. */
    void doScan(std::uint64_t start_key, std::uint32_t count,
                QueryCb cb) override;
    std::uint32_t
    assignVersion(std::uint64_t key) override
    {
        return ++keymap_[key].assignedVersion;
    }
    bool annotateRecord(const JmtEntry &e, OobEntry *unit) override;
    void onRecordCommitted(const JmtEntry &e) override;
    void applyCommit(const JmtEntry &e, bool in_batch) override;
    std::size_t journalIndexSize() const override { return jmt_.size(); }
    bool hasCheckpointWork() const override { return !jmt_.empty(); }
    void startCheckpoint() override;

    /** Trim the data-area slots of deleted keys (fan-out). */
    void trimTombstones(const std::vector<JmtEntry> &tombs,
                        std::function<void(Tick)> cb);
    void onStrategyDone(const std::vector<JmtEntry> &entries,
                        std::uint8_t half, Tick t);
    /**
     * Persist catalog entries for @p entries (their data-area state
     * changed) and fire @p cb when all metadata writes completed.
     */
    void writeCatalog(const std::vector<JmtEntry> &entries,
                      std::function<void(Tick)> cb);
    void deleteLogs(std::uint8_t half, std::function<void(Tick)> cb);

    /** Verify a committed key's bytes at its current location. */
    void verifyKeyContent(std::uint64_t key, const KeyState &st) const;

    DiskLayout layout_;
    Keymap keymap_;
    HostCache hostCache_;
    LazyStat statHostCacheHits_{stats_, "engine.hostCacheHits"};
    std::unique_ptr<CheckpointStrategy> strategy_;
    /** Journal mapping table: the latest committed log of each key
     *  in the active half (the checkpoint index). */
    std::unordered_map<std::uint64_t, JmtEntry> jmt_;
    /** writeCatalog scratch: catalog unit bases, sorted and unique
     *  (submission order is ascending base). */
    std::vector<Lba> catalogBases_;
};

} // namespace checkin

#endif // CHECKIN_ENGINE_KV_ENGINE_H_
