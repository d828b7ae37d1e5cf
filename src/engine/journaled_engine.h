/**
 * @file
 * The skeleton every journaled StorageEngine backend shares: query
 * admission, the shared JournalManager, the checkpoint trigger
 * policy, and the checkpoint lifecycle bookkeeping. A backend adds
 * its key index, read path, journal record layout + OOB annotation,
 * and what a checkpoint does with a frozen journal half.
 */

#ifndef CHECKIN_ENGINE_JOURNALED_ENGINE_H_
#define CHECKIN_ENGINE_JOURNALED_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "engine/checkpoint_policy.h"
#include "engine/engine_config.h"
#include "engine/journal.h"
#include "engine/query_gate.h"
#include "engine/storage_engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * Completion counter for a fan-out of device commands: @p done fires
 * with the latest completion tick once every command completed.
 */
struct FanOut
{
    std::size_t outstanding = 0;
    Tick last = 0;
    std::function<void(Tick)> done;

    void
    complete(const CmdResult &r)
    {
        last = std::max(last, r.require());
        assert(outstanding > 0);
        if (--outstanding == 0)
            done(last);
    }
};

/** Base of the journaled backends (`checkin`, `lsm`). */
class JournaledEngine : public StorageEngine
{
  public:
    // The journal's callbacks hold `this`.
    JournaledEngine(const JournaledEngine &) = delete;
    JournaledEngine &operator=(const JournaledEngine &) = delete;

    void start() override;

    // ------------------------------------------------------------------
    // Query interface: admission, then the backend's do*() body.
    // ------------------------------------------------------------------
    void get(std::uint64_t key, QueryCb cb) override;
    void update(std::uint64_t key, std::uint32_t value_bytes,
                QueryCb cb) override;
    void readModifyWrite(std::uint64_t key, std::uint32_t value_bytes,
                         QueryCb cb) override;
    /** Delete a key: journals a tombstone. */
    void erase(std::uint64_t key, QueryCb cb) override;
    /**
     * Atomic multi-key transaction (paper Fig 7: the engine groups
     * journal logs into a transaction): every operation journals in
     * one group commit, so a crash persists all of them or none.
     * @p cb fires once, after the whole transaction is durable.
     */
    void updateBatch(std::vector<BatchOp> ops, QueryCb cb) override;
    /** Range scan over up to @p count consecutive keys. */
    void scan(std::uint64_t start_key, std::uint32_t count,
              QueryCb cb) override;

    // ------------------------------------------------------------------
    // Checkpoint control
    // ------------------------------------------------------------------
    /** Start a checkpoint now if possible, else mark one pending.
     *  @p reason is recorded in the checkpoint phase timeline. */
    void requestCheckpoint(obs::CkptTrigger reason =
                               obs::CkptTrigger::Manual) override;
    bool
    checkpointInProgress() const override
    {
        return ckptInProgress_;
    }
    /** Completed checkpoint durations, in ticks. */
    const std::vector<Tick> &
    checkpointDurations() const override
    {
        return ckptDurations_;
    }

    double
    journalFillRate() const override
    {
        return policy_->fillRateBytesPerSec();
    }

    /** The trigger policy driving this engine's checkpoints. */
    const CheckpointPolicy &
    checkpointPolicy() const
    {
        return *policy_;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    JournalManager &journal() { return journal_; }
    StatRegistry &stats() override { return stats_; }
    const StatRegistry &stats() const override { return stats_; }
    const EngineConfig &config() const override { return cfg_; }

  protected:
    /** Trace lane (Cat::Engine) of checkpoint events; the journal
     *  uses lane 0. */
    static constexpr std::uint32_t kCkptLane = 1;

    JournaledEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg,
                    const JournalArea &area, RecordLayout layout);

    // ------------------------------------------------------------------
    // Backend hooks
    // ------------------------------------------------------------------
    virtual void doGet(std::uint64_t key, QueryCb cb) = 0;
    virtual void doScan(std::uint64_t start_key, std::uint32_t count,
                        QueryCb cb) = 0;
    /** Hand out @p key's next version (ordering only). */
    virtual std::uint32_t assignVersion(std::uint64_t key) = 0;
    /** Journal OOB annotation of one placed record (JournalFormat). */
    virtual bool annotateRecord(const JmtEntry &e, OobEntry *unit) = 0;
    /** Journal commit hook (JournalFormat): every committed record. */
    virtual void onRecordCommitted(const JmtEntry &e) = 0;
    /** A write's commit callback: apply @p e to the key index.
     *  @p in_batch when it belongs to an updateBatch transaction. */
    virtual void applyCommit(const JmtEntry &e, bool in_batch) = 0;
    /** Latest-entry count of the journal index (`journal.jmtSize`). */
    virtual std::size_t journalIndexSize() const = 0;
    /** True when the active half holds anything to checkpoint. */
    virtual bool hasCheckpointWork() const = 0;
    /** Checkpoint start, after requestCheckpoint() admitted it. */
    virtual void startCheckpoint() = 0;
    /** Active-half fill level the trigger policy sees. */
    virtual std::uint64_t
    policyLevelBytes() const
    {
        return journal_.activeJournalBytes();
    }

    // ------------------------------------------------------------------
    // Shared pieces of the checkpoint lifecycle
    // ------------------------------------------------------------------
    /** Mark the checkpoint started (lock, policy, telemetry, stat). */
    void markCheckpointStart();
    /** Open the attribution phase record over the snapshot @p entries
     *  and take the device-counter baselines. */
    void openCheckpointRecord(const std::vector<JmtEntry> &entries);
    /** Close the checkpoint at @p t: durations, @p span_name trace
     *  span with @p args, phase record, policy, lock release, and a
     *  coalesced or threshold follow-up request. */
    void finishCheckpoint(Tick t, const char *span_name,
                          std::initializer_list<obs::TraceArg> args);

    /** Scan completion state: one read per fetched range. */
    struct ScanJob
    {
        std::size_t outstanding = 0;
        Tick last = 0;
        std::uint32_t scanned = 0;
        bool launched = false;
        bool ckptAtSubmit = false;
        QueryCb cb;
    };
    std::shared_ptr<ScanJob> newScanJob(QueryCb cb);
    void submitScanRead(const std::shared_ptr<ScanJob> &job, Lba lba,
                        std::uint64_t nsect);
    /** All reads are submitted; completes at once when none were. */
    void launchScan(const std::shared_ptr<ScanJob> &job);

    /**
     * Peek @p chunks content tokens of @p key @p version at @p lba,
     * starting @p shift chunks into its first sector.
     * @return the first mismatching chunk index (its token in
     *         @p got), or @p chunks when every token matches.
     */
    std::uint32_t firstBadChunk(std::uint64_t key,
                                std::uint32_t version, Lba lba,
                                std::uint32_t shift,
                                std::uint32_t chunks,
                                std::uint64_t &got) const;

    EventQueue &eq_;
    Ssd &ssd_;
    EngineConfig cfg_;
    StatRegistry stats_;
    // Per-query counters, interned on first use so a run's key set
    // stays what string-keyed adds would produce.
    LazyStat statGets_{stats_, "engine.gets"};
    LazyStat statGetMisses_{stats_, "engine.getMisses"};
    LazyStat statGetsFromJournal_{stats_, "engine.getsFromJournal"};
    LazyStat statUpdates_{stats_, "engine.updates"};
    LazyStat statUpdateBytes_{stats_, "engine.updateBytes"};
    JournalManager journal_;
    std::unique_ptr<CheckpointPolicy> policy_;
    QueryGate gate_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;

    bool ckptInProgress_ = false;
    Tick ckptStart_ = 0;
    Tick ckptDataDone_ = 0; //!< data movement end
    Tick ckptMetaDone_ = 0; //!< metadata persistence end

  private:
    /** Current trigger-policy inputs. */
    PolicySignals policySignals() const;
    void doUpdate(std::uint64_t key, std::uint32_t value_bytes,
                  QueryCb cb);
    void doErase(std::uint64_t key, QueryCb cb);
    void onPolicyTimer();
    /** Feed the policy an append commit; maybe trigger. */
    void noteAppend();
    /** True while the checkpoint lock holds queries back. */
    bool
    queriesLocked() const
    {
        return cfg_.lockQueriesDuringCheckpoint && ckptInProgress_;
    }

    bool pendingCkptRequest_ = false;
    std::vector<Tick> ckptDurations_;
    /** In-flight checkpoint's phase-timeline record (attribution);
     *  device counters hold their start-of-checkpoint baselines
     *  until finishCheckpoint() turns them into deltas. */
    obs::CheckpointStat ckptRec_;
    std::uint64_t ckptSeq_ = 0;
    /** firstBadChunk() read buffer, reused across queries. */
    mutable std::vector<SectorData> verifyBuf_;
};

} // namespace checkin

#endif // CHECKIN_ENGINE_JOURNALED_ENGINE_H_
