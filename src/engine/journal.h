/**
 * @file
 * Journaling layer shared by every storage-engine backend:
 * write-ahead logging with group commit, two ping-pong journal
 * halves, and the Check-In block aligner (paper Algorithm 2).
 *
 * Conventional mode packs journal records back-to-back at 128 B chunk
 * granularity (so commits rewrite the partially-filled tail sector —
 * the misalignment the paper attacks). Aligned mode formats every
 * record to mapping-unit buckets, bin-packs PARTIAL records into
 * MERGED units, and always writes whole fresh units.
 */

#ifndef CHECKIN_ENGINE_JOURNAL_H_
#define CHECKIN_ENGINE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "engine/engine_config.h"
#include "obs/attribution.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/** Journal record formatting classes (Algorithm 2). */
enum class LogType : std::uint8_t
{
    Raw,     //!< conventional chunk-packed record (no alignment)
    Full,    //!< aligned record occupying whole mapping units
    Partial, //!< sub-unit record alone in its (padded) unit
    Merged,  //!< sub-unit record sharing a unit with others
};

/** A committed journal record's placement; Check-In's journal
 *  mapping table (JMT) keeps the latest one per key. */
struct JmtEntry
{
    std::uint64_t key = 0;
    std::uint32_t version = 0;
    std::uint8_t half = 0;
    /** Absolute chunk offset of the record inside the half. */
    std::uint64_t chunkOff = 0;
    /** Stored length in chunks (after formatting/compression). */
    std::uint32_t chunks = 0;
    /** Original payload bytes of the update. */
    std::uint32_t payloadBytes = 0;
    LogType type = LogType::Raw;
};

/** Formatting result of Algorithm 2's Update() for one record. */
struct FormattedSize
{
    std::uint32_t chunks = 0;
    LogType type = LogType::Raw;
};

/**
 * Pure function implementing Algorithm 2's size replacement: values
 * above the mapping unit are compressed and unit-aligned (FULL);
 * values at or below it are bucketed to unit/4 steps (FULL at exactly
 * one unit, PARTIAL otherwise). Conventional mode stores the raw
 * chunk count (Raw).
 */
FormattedSize formatLogSize(std::uint32_t value_bytes,
                            std::uint32_t unit_bytes, bool aligned,
                            double compress_ratio);

/** Where a journal's two ping-pong halves live on the device. */
struct JournalArea
{
    Lba start[2] = {0, 0};
    std::uint64_t sectors = 0; //!< per half

    /** Chunk capacity of one half. */
    std::uint64_t
    chunks() const
    {
        return sectors * kChunksPerSector;
    }
};

/** How a backend lays its records out inside a journal half. */
enum class RecordLayout : std::uint8_t
{
    /** Check-In: Algorithm 2 when EngineConfig::mode aligns records,
     *  conventional 128 B chunk packing otherwise. */
    Algorithm2,
    /**
     * LSM identity-offset layout: records in arrival order, each
     * starting on a mapping-unit boundary and padded to whole units
     * (a tombstone is one token alone in one unit), so a frozen half
     * promotes unit-for-unit into an L0 region. Data tokens cover
     * ceil(bytes / 128) chunks; the padding stays zero.
     */
    UnitAligned,
};

/** What a backend plugs into the shared journal at construction. */
struct JournalFormat
{
    RecordLayout layout = RecordLayout::Algorithm2;
    /**
     * Per-unit OOB annotation of one placed record, called in
     * placement order while its group's write is built: fill the
     * record's units (@p unit[k] for k < its unit span) and return
     * true, or return false to leave them unannotated.
     */
    std::function<bool(const JmtEntry &, OobEntry *unit)> annotate;
    /** Commit hook: fired for every record of a completed group
     *  commit, in placement order, before that record's CommitCb. */
    std::function<void(const JmtEntry &)> onCommit;
};

/**
 * Write-ahead journal with group commit over an Ssd — the one WAL of
 * every storage-engine backend. The backend's JournalFormat decides
 * record layout and per-unit OOB annotation; the journal owns group
 * selection, placement, the device write, space stalls, quiesce and
 * the ping-pong halves.
 */
class JournalManager
{
  public:
    /** Fired when a record's group commit completes. Inline storage
     *  fits a capture of {this, key, QueryCb, flag}, so a per-record
     *  callback never allocates. */
    using CommitCb = InlineFunction<void(const JmtEntry &, Tick)>;
    /** Fired when the journal wants a checkpoint (space pressure). */
    using PressureCb = std::function<void()>;

    JournalManager(SimContext &ctx, Ssd &ssd, const JournalArea &area,
                   const EngineConfig &cfg, StatRegistry &stats,
                   JournalFormat format);

    void setPressureCallback(PressureCb cb)
    {
        onPressure_ = std::move(cb);
    }

    /**
     * Append one update's log; @p cb fires when the containing group
     * commit is durable on the device.
     */
    void append(std::uint64_t key, std::uint32_t version,
                std::uint32_t value_bytes, CommitCb cb);

    /** One record of a multi-record transaction. */
    struct BatchRecord
    {
        std::uint64_t key;
        std::uint32_t version;
        std::uint32_t valueBytes; //!< 0 = tombstone
        CommitCb cb;
    };

    /**
     * Append a transaction: all records are guaranteed to flush in
     * the same group commit (one atomic device write, paper Fig 7),
     * so a crash either persists all of them or none.
     * @throws std::invalid_argument above EngineConfig::maxCommitGroup.
     */
    void appendBatch(std::vector<BatchRecord> records);

    /** Half currently receiving logs. */
    std::uint8_t activeHalf() const { return active_; }

    /** True when the non-active half is free for a switch. */
    bool
    otherHalfFree() const
    {
        return !halfBusy_[active_ ^ 1];
    }

    /**
     * Begin a checkpoint: mark the active half as being checkpointed
     * and switch logging to the other (free) half. The caller owns
     * checkpointing the old half's records and must call
     * onHalfFreed() once its logs are deleted.
     */
    void switchHalves();

    /** The checkpointed half's logs were deleted on the device. */
    void onHalfFreed(std::uint8_t half);

    /** Bytes of log space used in the active half. */
    std::uint64_t
    activeJournalBytes() const
    {
        return appendChunk_[active_] * kChunkBytes;
    }

    /** Value bytes of the records placed in the active half. */
    std::uint64_t
    activePayloadBytes() const
    {
        return payloadBytes_[active_];
    }

    /** Total logs appended to the active half since its last reset. */
    std::uint64_t
    logsInActiveHalf() const
    {
        return logsAppended_[active_];
    }

    /** True when appends are blocked waiting for journal space. */
    bool stalled() const { return stalledForSpace_; }

    /** Updates buffered but not yet committed (lost on crash). */
    std::size_t
    pendingCount() const
    {
        return buffer_.size() - bufferHead_;
    }

    /** True while a group-commit write is outstanding. */
    bool flushInFlight() const { return flushInFlight_; }

    /**
     * Run @p cb as soon as no flush is outstanding, suppressing the
     * next flush until then. Used before switching halves so every
     * record of the old half has committed when it is snapshotted.
     */
    void quiesce(std::function<void()> cb);

  private:
    struct Pending
    {
        std::uint64_t key;
        std::uint32_t version;
        std::uint32_t valueBytes;
        CommitCb cb;
        /** Records in this batch (set on the head; 1 for singles). */
        std::uint32_t batchLen = 1;
        /** Latency-attribution op the record belongs to. */
        obs::OpToken op = obs::kNoOpToken;
    };

    struct Placed
    {
        JmtEntry entry;
        CommitCb cb;
        obs::OpToken op;
    };

    std::uint32_t unitChunks() const;
    /** Stored size of a @p value_bytes record in this layout. */
    FormattedSize storedSize(std::uint32_t value_bytes) const;

    void startFlush();
    /**
     * Place the @p n oldest pending records in the active half and
     * move them into @p placed; false (nothing moved) when they do
     * not fit.
     */
    bool placeGroup(std::size_t n, std::vector<Placed> &placed,
                    std::uint64_t &first_chunk,
                    std::uint64_t &end_chunk);
    void submitGroup(std::vector<Placed> placed,
                     std::uint64_t first_chunk,
                     std::uint64_t end_chunk);

    EventQueue &eq_;
    Ssd &ssd_;
    const JournalArea area_;
    const EngineConfig &cfg_;
    StatRegistry &stats_;
    const JournalFormat format_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;
    PressureCb onPressure_;

    // Group-commit counters, interned on first use so a run's key set
    // stays what string-keyed adds would produce.
    LazyStat statJournalStalls_{stats_, "engine.journalStalls"};
    LazyStat statMergedUnits_{stats_, "engine.mergedUnits"};
    LazyStat statPartialUnits_{stats_, "engine.partialUnits"};
    LazyStat statTombstones_{stats_, "engine.tombstones"};
    LazyStat statJournalLogs_{stats_, "engine.journalLogs"};
    LazyStat statJournalChunksStored_{stats_,
                                      "engine.journalChunksStored"};
    LazyStat statJournalPayloadBytes_{stats_,
                                      "engine.journalPayloadBytes"};
    LazyStat statJournalFlushes_{stats_, "engine.journalFlushes"};
    LazyStat statJournalSectorsWritten_{
        stats_, "engine.journalSectorsWritten"};

    /** Appends not yet in a group commit: buffer_[bufferHead_, end),
     *  oldest first. The consumed prefix is dropped in bulk so the
     *  storage is reused instead of reallocated. */
    std::vector<Pending> buffer_;
    std::size_t bufferHead_ = 0;
    bool flushInFlight_ = false;
    bool stalledForSpace_ = false;
    /** Last space-stall window (attribution: records buffered across
     *  it charge the window to CheckpointStall, not JournalWait). */
    Tick stallStart_ = 0;
    Tick stallEnd_ = 0;
    std::function<void()> quiesceCb_;

    std::uint8_t active_ = 0;
    bool halfBusy_[2] = {false, false};
    std::uint64_t appendChunk_[2] = {0, 0};
    std::uint64_t logsAppended_[2] = {0, 0};
    std::uint64_t payloadBytes_[2] = {0, 0};
    /** Last sector written to each half. When a group ends inside it,
     *  the next group re-writes it with its earlier tokens (the
     *  conventional tail rewrite); no other earlier content is ever
     *  read back. */
    SectorData tail_[2];

    /** One record's dry placement (placeGroup scratch). */
    struct Slot
    {
        std::size_t index; //!< offset from bufferHead_
        std::uint64_t chunkOff;
        std::uint32_t chunks;
        LogType type;
        /** Bin of a sub-unit record; kNoBin for FULL / Raw. */
        std::uint32_t bin;
    };
    static constexpr std::uint32_t kNoBin = ~std::uint32_t{0};
    /** One mapping unit PARTIAL records are packed into. */
    struct Bin
    {
        std::uint64_t base;
        std::uint32_t fill = 0;
        std::uint32_t members = 0;
    };
    // placeGroup scratch, reused across group commits.
    std::vector<Slot> slots_;
    std::vector<std::pair<std::size_t, FormattedSize>> partials_;
    std::vector<Bin> bins_;
};

/** One record recovered from a journal half or data area. */
struct ParsedRecord
{
    std::uint64_t key = 0;
    std::uint32_t version = 0;
    std::uint64_t chunkOff = 0; //!< from the area start
    std::uint32_t chunks = 0;   //!< data tokens; 0 = tombstone
};

/**
 * Parse the records of the @p sectors -sector area at @p start (a
 * device peek, no simulated time). Records start every @p stride
 * chunks: 1 for byte-packed areas, the unit size in chunks for
 * unit-aligned ones, where each record occupies whole strides.
 */
std::vector<ParsedRecord> parseRecords(const Ssd &ssd, Lba start,
                                       std::uint64_t sectors,
                                       std::uint32_t stride);

} // namespace checkin

#endif // CHECKIN_ENGINE_JOURNAL_H_
