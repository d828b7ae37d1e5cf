#include "engine/journaled_engine.h"

#include <algorithm>
#include <cassert>

#include "engine/record.h"
#include "obs/attribution.h"
#include "obs/telemetry.h"

namespace checkin {

namespace {

/**
 * Apply @p f(field, device value) to each device-work field of
 * @p c: assigning takes a checkpoint's baselines, subtracting turns
 * them into its deltas.
 */
template <typename F>
void
forEachDeviceCounter(obs::CheckpointStat &c, const StatRegistry &ds,
                     F &&f)
{
    f(c.cowCommands, ds.get("ssd.cmd.cowSingle") +
                         ds.get("ssd.cmd.cowMulti") +
                         ds.get("ssd.cmd.checkpointRemap"));
    f(c.remappedPairs, ds.get("isce.remappedPairs"));
    f(c.remappedUnits, ds.get("isce.remappedUnits"));
    f(c.copiedPairs, ds.get("isce.copiedPairs"));
    f(c.copiedChunks, ds.get("isce.copiedChunks"));
    f(c.bufferedSmallRecords, ds.get("isce.bufferedSmallRecords"));
}

} // namespace

JournaledEngine::JournaledEngine(SimContext &ctx, Ssd &ssd,
                                 const EngineConfig &cfg,
                                 const JournalArea &area,
                                 RecordLayout layout)
    : eq_(ctx.events()),
      ssd_(ssd),
      cfg_(cfg),
      journal_(ctx, ssd, area, cfg_, stats_,
               JournalFormat{
                   layout,
                   [this](const JmtEntry &e, OobEntry *unit) {
                       return annotateRecord(e, unit);
                   },
                   [this](const JmtEntry &e) { onRecordCommitted(e); }}),
      policy_(CheckpointPolicy::create(cfg_)),
      gate_(eq_, cfg_.hostCpuPerQuery)
{
    journal_.setPressureCallback([this] {
        requestCheckpoint(obs::CkptTrigger::SpacePressure);
    });
    telem_ = ctx.telemetry();
    if (telem_ != nullptr && telem_->enabled()) {
        telem_->addGauge("journal.bytes",
                         [this] { return policyLevelBytes(); });
        telem_->addGauge("journal.jmtSize", [this] {
            return std::uint64_t(journalIndexSize());
        });
        telem_->addGauge("journal.pending", [this] {
            return std::uint64_t(journal_.pendingCount());
        });
        telem_->addGauge("journal.stalled", [this] {
            return std::uint64_t(journal_.stalled() ? 1 : 0);
        });
        telem_->addCounter("journal.stalls", [this] {
            return stats_.get("engine.journalStalls");
        });
        telem_->addGauge("engine.deferredOps", [this] {
            return std::uint64_t(gate_.held());
        });
        telem_->addGauge("engine.keymapSize",
                         [this] { return cfg_.recordCount; });
        telem_->addGauge("engine.ckptInProgress", [this] {
            return std::uint64_t(ckptInProgress_ ? 1 : 0);
        });
        telem_->addGauge("journal.fillRate", [this] {
            return std::uint64_t(policy_->fillRateBytesPerSec());
        });
        telem_->addCounter("engine.checkpoints", [this] {
            return stats_.get("engine.checkpoints");
        });
    }
}

// ----------------------------------------------------------------------
// Trigger policy
// ----------------------------------------------------------------------

void
JournaledEngine::start()
{
    if (policy_->timerPeriod() > 0)
        eq_.scheduleAfter(policy_->timerPeriod(),
                          [this] { onPolicyTimer(); });
}

void
JournaledEngine::onPolicyTimer()
{
    const PolicyDecision d = policy_->onTimer(policySignals());
    if (d.checkpoint)
        requestCheckpoint(d.trigger);
    if (policy_->timerPeriod() > 0)
        eq_.scheduleAfter(policy_->timerPeriod(),
                          [this] { onPolicyTimer(); });
}

PolicySignals
JournaledEngine::policySignals() const
{
    PolicySignals sig;
    sig.now = eq_.now();
    sig.journalBytes = policyLevelBytes();
    sig.journalCapacityBytes = cfg_.journalHalfBytes;
    sig.checkpointInProgress = ckptInProgress_;
    sig.checkpointStallTicks =
        obs::attrLiveStageTicks(obs::Stage::CheckpointStall);
    return sig;
}

void
JournaledEngine::noteAppend()
{
    policy_->noteAppend(eq_.now(), policyLevelBytes());
    if (ckptInProgress_)
        return;
    const PolicyDecision d = policy_->onAppend(policySignals());
    if (d.checkpoint)
        requestCheckpoint(d.trigger);
}

// ----------------------------------------------------------------------
// Queries
// ----------------------------------------------------------------------

void
JournaledEngine::get(std::uint64_t key, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    auto task = [this, key, op, cb = std::move(cb)]() mutable {
        // A deferred task ran later than scheduled; the gap was spent
        // behind the checkpoint lock (monotone no-op otherwise).
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doGet(key, std::move(cb));
    };
    gate_.admit(queriesLocked(), op, std::move(task));
}

void
JournaledEngine::update(std::uint64_t key, std::uint32_t value_bytes,
                        QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    auto task = [this, key, value_bytes, op,
                 cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doUpdate(key, value_bytes, std::move(cb));
    };
    gate_.admit(queriesLocked(), op, std::move(task));
}

void
JournaledEngine::readModifyWrite(std::uint64_t key,
                                 std::uint32_t value_bytes, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    get(key, [this, key, value_bytes, op,
              cb = std::move(cb)](const QueryResult &r1) mutable {
        const bool first_during = r1.duringCheckpoint;
        // The continuation runs from a completion callback where the
        // ambient current op is gone; re-scope it so the update leg
        // attributes to the same op.
        obs::AttrOpScope attr_scope(op);
        update(key, value_bytes,
               [cb = std::move(cb),
                first_during](const QueryResult &r2) {
                   QueryResult res = r2;
                   res.duringCheckpoint |= first_during;
                   cb(res);
               });
    });
}

void
JournaledEngine::erase(std::uint64_t key, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    auto task = [this, key, op, cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doErase(key, std::move(cb));
    };
    gate_.admit(queriesLocked(), op, std::move(task));
}

void
JournaledEngine::scan(std::uint64_t start_key, std::uint32_t count,
                      QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    auto task = [this, start_key, count, op,
                 cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doScan(start_key, count, std::move(cb));
    };
    gate_.admit(queriesLocked(), op, std::move(task));
}

void
JournaledEngine::doUpdate(std::uint64_t key, std::uint32_t value_bytes,
                          QueryCb cb)
{
    assert(key < cfg_.recordCount);
    assert(value_bytes > 0 && value_bytes <= cfg_.maxValueBytes);
    const std::uint32_t version = assignVersion(key);
    const bool ckpt_at_submit = ckptInProgress_;
    journal_.append(
        key, version, value_bytes,
        [this, cb = std::move(cb),
         ckpt_at_submit](const JmtEntry &e, Tick done) {
            applyCommit(e, /*in_batch=*/false);
            statUpdates_.add();
            statUpdateBytes_.add(e.payloadBytes);
            noteAppend();
            cb(QueryResult{done,
                           ckpt_at_submit || ckptInProgress_, true});
        });
}

void
JournaledEngine::doErase(std::uint64_t key, QueryCb cb)
{
    assert(key < cfg_.recordCount);
    const std::uint32_t version = assignVersion(key);
    const bool ckpt_at_submit = ckptInProgress_;
    journal_.append(
        key, version, /*value_bytes=*/0,
        [this, cb = std::move(cb),
         ckpt_at_submit](const JmtEntry &e, Tick done) {
            applyCommit(e, /*in_batch=*/false);
            stats_.add("engine.deletes");
            noteAppend();
            cb(QueryResult{done,
                           ckpt_at_submit || ckptInProgress_, true});
        });
}

void
JournaledEngine::updateBatch(std::vector<BatchOp> ops, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    auto task = [this, ops = std::move(ops), op,
                 cb = std::move(cb)]() mutable {
        assert(!ops.empty());
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        const bool ckpt_at_submit = ckptInProgress_;
        struct TxnState
        {
            std::size_t outstanding;
            Tick last = 0;
            QueryCb cb;
        };
        auto txn = std::make_shared<TxnState>();
        txn->outstanding = ops.size();
        txn->cb = std::move(cb);
        std::vector<JournalManager::BatchRecord> records;
        records.reserve(ops.size());
        for (const BatchOp &o : ops) {
            assert(o.key < cfg_.recordCount);
            const std::uint32_t version = assignVersion(o.key);
            records.push_back(JournalManager::BatchRecord{
                o.key, version, o.valueBytes,
                [this, txn, ckpt_at_submit](const JmtEntry &e,
                                            Tick done) {
                    applyCommit(e, /*in_batch=*/true);
                    txn->last = std::max(txn->last, done);
                    if (--txn->outstanding == 0) {
                        stats_.add("engine.batchCommits");
                        noteAppend();
                        txn->cb(QueryResult{
                            txn->last,
                            ckpt_at_submit || ckptInProgress_,
                            true});
                    }
                }});
        }
        journal_.appendBatch(std::move(records));
    };
    gate_.admit(queriesLocked(), op, std::move(task));
}

std::shared_ptr<JournaledEngine::ScanJob>
JournaledEngine::newScanJob(QueryCb cb)
{
    auto job = std::make_shared<ScanJob>();
    job->ckptAtSubmit = ckptInProgress_;
    job->cb = std::move(cb);
    return job;
}

void
JournaledEngine::submitScanRead(const std::shared_ptr<ScanJob> &job,
                                Lba lba, std::uint64_t nsect)
{
    ++job->outstanding;
    ssd_.submit(Command::read(lba, nsect, IoCause::Query),
                [this, job](const CmdResult &r) {
        job->last = std::max(job->last, r.require());
        if (--job->outstanding == 0 && job->launched) {
            job->cb(QueryResult{job->last,
                                job->ckptAtSubmit || ckptInProgress_,
                                job->scanned > 0, job->scanned});
        }
    });
}

void
JournaledEngine::launchScan(const std::shared_ptr<ScanJob> &job)
{
    job->launched = true;
    if (job->outstanding == 0) {
        // Nothing live in range: complete asynchronously.
        eq_.scheduleAfter(0, [this, job] {
            job->cb(QueryResult{eq_.now(),
                                job->ckptAtSubmit || ckptInProgress_,
                                false, 0});
        });
    }
}

std::uint32_t
JournaledEngine::firstBadChunk(std::uint64_t key, std::uint32_t version,
                               Lba lba, std::uint32_t shift,
                               std::uint32_t chunks,
                               std::uint64_t &got) const
{
    const auto nsect =
        std::uint32_t(divCeil(shift + chunks, kChunksPerSector));
    if (verifyBuf_.size() < nsect)
        verifyBuf_.resize(nsect);
    ssd_.peek(lba, nsect, verifyBuf_.data());
    for (std::uint32_t c = 0; c < chunks; ++c) {
        const std::uint32_t pos = shift + c;
        got = verifyBuf_[pos / kChunksPerSector]
                  .chunks[pos % kChunksPerSector];
        if (got != dataChunkToken(key, version, c))
            return c;
    }
    return chunks;
}

// ----------------------------------------------------------------------
// Checkpoint lifecycle
// ----------------------------------------------------------------------

void
JournaledEngine::requestCheckpoint(obs::CkptTrigger reason)
{
    // A safety-bound trip is an anomaly even when the request
    // coalesces into a checkpoint already in flight.
    if (telem_ != nullptr && reason == obs::CkptTrigger::Safety) {
        telem_->noteEvent(obs::TelemetryEvent::SafetyTrip, eq_.now(),
                          policyLevelBytes());
    }
    if (ckptInProgress_) {
        pendingCkptRequest_ = true;
        return;
    }
    if (!hasCheckpointWork())
        return;
    if (!journal_.otherHalfFree()) {
        pendingCkptRequest_ = true;
        return;
    }
    // The request that actually starts the checkpoint names it;
    // coalesced earlier requests re-fire as Backlog.
    ckptRec_.trigger = reason;
    startCheckpoint();
}

void
JournaledEngine::markCheckpointStart()
{
    ckptInProgress_ = true;
    ckptStart_ = eq_.now();
    policy_->onCheckpointStart(ckptStart_);
    if (telem_ != nullptr)
        telem_->noteCheckpointStart(ckptStart_);
    stats_.add("engine.checkpoints");
}

void
JournaledEngine::openCheckpointRecord(
    const std::vector<JmtEntry> &entries)
{
    if (!obs::attributionOn())
        return;
    const obs::CkptTrigger reason = ckptRec_.trigger;
    ckptRec_ = obs::CheckpointStat{};
    ckptRec_.trigger = reason;
    ckptRec_.seq = ckptSeq_;
    ckptRec_.startTick = ckptStart_;
    for (const JmtEntry &e : entries) {
        ++ckptRec_.entries;
        if (e.payloadBytes == 0)
            ++ckptRec_.tombstones;
        switch (e.type) {
          case LogType::Raw: ++ckptRec_.rawRecords; break;
          case LogType::Full: ++ckptRec_.fullRecords; break;
          case LogType::Partial: ++ckptRec_.partialRecords; break;
          case LogType::Merged: ++ckptRec_.mergedRecords; break;
        }
    }
    forEachDeviceCounter(ckptRec_, ssd_.stats(),
                         [](std::uint64_t &field, std::uint64_t v) {
                             field = v;
                         });
}

void
JournaledEngine::finishCheckpoint(
    Tick t, const char *span_name,
    std::initializer_list<obs::TraceArg> args)
{
    ckptInProgress_ = false;
    ckptDurations_.push_back(t - ckptStart_);
    if (telem_ != nullptr)
        telem_->noteCheckpointEnd(t, t - ckptStart_);
    stats_.add("engine.ckptTicks", t - ckptStart_);
    obs::span(obs::Cat::Engine, kCkptLane, span_name, ckptStart_, t,
              args);
    if (obs::attributionOn()) {
        ckptRec_.dataDoneTick = ckptDataDone_;
        ckptRec_.metaDoneTick = ckptMetaDone_;
        ckptRec_.endTick = t;
        forEachDeviceCounter(ckptRec_, ssd_.stats(),
                             [](std::uint64_t &field, std::uint64_t v) {
                                 field = v - field;
                             });
        obs::attrNoteCheckpoint(ckptRec_);
    }
    ++ckptSeq_;
    policy_->onCheckpointEnd(t, t - ckptStart_);
    gate_.release();
    const bool threshold_hit =
        policy_->onAppend(policySignals()).checkpoint;
    if (pendingCkptRequest_ || threshold_hit) {
        pendingCkptRequest_ = false;
        requestCheckpoint(obs::CkptTrigger::Backlog);
    }
}

} // namespace checkin
