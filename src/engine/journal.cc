#include "engine/journal.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "engine/record.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace checkin {

namespace {

/** Trace lane for journal events (Cat::Engine). */
constexpr std::uint32_t kJournalLane = 0;

} // namespace

FormattedSize
formatLogSize(std::uint32_t value_bytes, std::uint32_t unit_bytes,
              bool aligned, double compress_ratio)
{
    FormattedSize f;
    if (value_bytes == 0) {
        // Deletion tombstone: one chunk, always sub-unit.
        f.chunks = 1;
        f.type = aligned ? LogType::Partial : LogType::Raw;
        return f;
    }
    if (!aligned) {
        f.chunks = std::uint32_t(divCeil(value_bytes, kChunkBytes));
        f.type = LogType::Raw;
        return f;
    }
    if (value_bytes > unit_bytes) {
        // Algorithm 2 lines 3-6: compress, then align to n units.
        const auto compressed = std::uint32_t(
            std::ceil(double(value_bytes) * compress_ratio));
        const std::uint64_t stored = alignUp(compressed, unit_bytes);
        f.chunks = std::uint32_t(stored / kChunkBytes);
        f.type = LogType::Full;
        return f;
    }
    // Lines 8-17: bucket to unit/4 steps.
    const std::uint32_t step = unit_bytes / 4;
    const std::uint64_t stored =
        std::max<std::uint64_t>(step, alignUp(value_bytes, step));
    f.chunks = std::uint32_t(stored / kChunkBytes);
    f.type = stored == unit_bytes ? LogType::Full : LogType::Partial;
    return f;
}

JournalManager::JournalManager(SimContext &ctx, Ssd &ssd,
                               const JournalArea &area,
                               const EngineConfig &cfg,
                               StatRegistry &stats,
                               JournalFormat format)
    : eq_(ctx.events()),
      ssd_(ssd),
      area_(area),
      cfg_(cfg),
      stats_(stats),
      format_(std::move(format)),
      telem_(ctx.telemetry())
{
    obs::nameLane(obs::Cat::Engine, kJournalLane, "journal");
}

std::uint32_t
JournalManager::unitChunks() const
{
    return ssd_.ftl().mappingUnitBytes() / kChunkBytes;
}

FormattedSize
JournalManager::storedSize(std::uint32_t value_bytes) const
{
    if (format_.layout == RecordLayout::UnitAligned) {
        const std::uint32_t uc = unitChunks();
        const std::uint64_t units = std::max<std::uint64_t>(
            1, divCeil(divCeil(value_bytes, kChunkBytes), uc));
        return FormattedSize{std::uint32_t(units * uc),
                             LogType::Full};
    }
    return formatLogSize(value_bytes, ssd_.ftl().mappingUnitBytes(),
                         cfg_.alignedJournaling(), cfg_.compressRatio);
}

void
JournalManager::append(std::uint64_t key, std::uint32_t version,
                       std::uint32_t value_bytes, CommitCb cb)
{
    buffer_.push_back(Pending{key, version, value_bytes,
                              std::move(cb), 1,
                              obs::attrCurrentOp()});
    startFlush();
}

void
JournalManager::appendBatch(std::vector<BatchRecord> records)
{
    // Atomicity: the whole batch must land in one group commit.
    // startFlush() takes up to maxCommitGroup records in buffer
    // order, so as long as the batch fits the group bound and is
    // enqueued contiguously, it cannot be split.
    if (records.size() > cfg_.maxCommitGroup) {
        throw std::invalid_argument(
            "transaction exceeds the group-commit bound");
    }
    bool head = true;
    for (BatchRecord &r : records) {
        buffer_.push_back(Pending{
            r.key, r.version, r.valueBytes, std::move(r.cb),
            head ? std::uint32_t(records.size()) : 1u,
            obs::attrCurrentOp()});
        head = false;
    }
    stats_.add("engine.transactions");
    startFlush();
}

void
JournalManager::quiesce(std::function<void()> cb)
{
    assert(!quiesceCb_ && "quiesce already pending");
    if (!flushInFlight_) {
        cb();
        return;
    }
    quiesceCb_ = std::move(cb);
}

void
JournalManager::startFlush()
{
    const std::size_t pending = pendingCount();
    if (flushInFlight_ || stalledForSpace_ || pending == 0 ||
        quiesceCb_) {
        return;
    }

    // Select the group without splitting transactions: walk from
    // batch head to batch head until the group bound is reached. A
    // batch always starts a jump, so it lands whole in one group.
    std::size_t n = 0;
    while (n < pending) {
        const std::size_t take = std::max<std::uint32_t>(
            1, buffer_[bufferHead_ + n].batchLen);
        if (n > 0 && n + take > cfg_.maxCommitGroup)
            break;
        n += take;
        if (n >= cfg_.maxCommitGroup)
            break;
    }
    n = std::min(n, pending);

    std::vector<Placed> placed;
    std::uint64_t first_chunk = 0;
    std::uint64_t end_chunk = 0;
    if (!placeGroup(n, placed, first_chunk, end_chunk)) {
        // Out of journal space: the group stays buffered (order
        // preserved) and the engine is asked for a checkpoint.
        stalledForSpace_ = true;
        stallStart_ = eq_.now();
        statJournalStalls_.add();
        obs::instant(obs::Cat::Engine, kJournalLane, "journal.stall",
                     eq_.now(), {{"bufferedLogs", pendingCount()}});
        if (telem_ != nullptr) {
            telem_->noteEvent(obs::TelemetryEvent::JournalStall,
                              eq_.now(), pendingCount());
        }
        if (onPressure_)
            onPressure_();
        return;
    }
    // Drop the consumed prefix once it is at least half the buffer:
    // amortized O(1) per record, and the storage is kept.
    bufferHead_ += n;
    if (2 * bufferHead_ >= buffer_.size()) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + std::ptrdiff_t(bufferHead_));
        bufferHead_ = 0;
    }
    flushInFlight_ = true;
    submitGroup(std::move(placed), first_chunk, end_chunk);
}

bool
JournalManager::placeGroup(std::size_t n, std::vector<Placed> &placed,
                           std::uint64_t &first_chunk,
                           std::uint64_t &end_chunk)
{
    const std::uint32_t uc = unitChunks();
    const bool algorithm2 = format_.layout == RecordLayout::Algorithm2;
    const bool aligned = !algorithm2 || cfg_.alignedJournaling();
    std::uint64_t off = appendChunk_[active_];
    first_chunk = aligned ? alignUp(off, uc) : off;
    std::uint64_t cursor = first_chunk;
    Pending *group = buffer_.data() + bufferHead_;

    // Dry placement first: nothing leaves the buffer until the whole
    // group is known to fit.
    slots_.clear();
    std::uint64_t merged_units = 0;
    std::uint64_t partial_units = 0;

    if (!aligned) {
        for (std::size_t i = 0; i < n; ++i) {
            const FormattedSize f = storedSize(group[i].valueBytes);
            slots_.push_back(Slot{i, cursor, f.chunks, f.type, kNoBin});
            cursor += f.chunks;
        }
    } else {
        // FULL records first, each at a unit boundary.
        partials_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const FormattedSize f = storedSize(group[i].valueBytes);
            if (f.type == LogType::Full) {
                slots_.push_back(
                    Slot{i, cursor, f.chunks, f.type, kNoBin});
                cursor += f.chunks;
            } else {
                partials_.push_back({i, f});
            }
        }
        // First-fit-decreasing bin packing of PARTIALs into units
        // (Algorithm 2's MergePartialLogs).
        std::sort(partials_.begin(), partials_.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.chunks > b.second.chunks;
                  });
        bins_.clear();
        for (const auto &[index, f] : partials_) {
            std::uint32_t target = kNoBin;
            if (cfg_.mergePartials) {
                for (std::uint32_t b = 0; b < bins_.size(); ++b) {
                    if (bins_[b].fill + f.chunks <= uc) {
                        target = b;
                        break;
                    }
                }
            }
            if (target == kNoBin) {
                target = std::uint32_t(bins_.size());
                bins_.push_back(Bin{cursor});
                cursor += uc;
            }
            Bin &bin = bins_[target];
            slots_.push_back(Slot{index, bin.base + bin.fill, f.chunks,
                                  LogType::Partial, target});
            bin.fill += f.chunks;
            ++bin.members;
        }
        for (const Bin &b : bins_)
            ++(b.members > 1 ? merged_units : partial_units);
        for (Slot &s : slots_) {
            if (s.bin != kNoBin && bins_[s.bin].members > 1)
                s.type = LogType::Merged;
        }
    }
    end_chunk = cursor;
    if (end_chunk > area_.chunks())
        return false;

    if (algorithm2) {
        statMergedUnits_.add(merged_units);
        statPartialUnits_.add(partial_units);
    }
    placed.reserve(slots_.size());
    for (const Slot &s : slots_) {
        Pending &p = group[s.index];
        JmtEntry e;
        e.key = p.key;
        e.version = p.version;
        e.half = active_;
        e.chunkOff = s.chunkOff;
        e.chunks = s.chunks;
        e.payloadBytes = p.valueBytes;
        e.type = s.type;
        placed.push_back(Placed{e, std::move(p.cb), p.op});
    }
    return true;
}

void
JournalManager::submitGroup(std::vector<Placed> placed,
                            std::uint64_t first_chunk,
                            std::uint64_t end_chunk)
{
    const std::uint8_t half = active_;

    // The dirty sector range. Conventional packing re-writes the
    // partially filled first sector (tail rewrite); aligned layouts
    // always start on a fresh unit.
    const std::uint64_t s0 = first_chunk / kChunksPerSector;
    const std::uint64_t s1 =
        divCeil(end_chunk, kChunksPerSector); // exclusive
    std::vector<SectorData> payload(s1 - s0);
    if (s0 * kChunksPerSector < appendChunk_[half])
        payload[0] = tail_[half];
    auto put = [&payload, s0](std::uint64_t chunk, std::uint64_t tok) {
        payload[chunk / kChunksPerSector - s0]
            .chunks[chunk % kChunksPerSector] = tok;
    };

    // Lay the records' chunk tokens into the payload.
    const bool unit_aligned =
        format_.layout == RecordLayout::UnitAligned;
    for (const Placed &pl : placed) {
        const JmtEntry &e = pl.entry;
        if (e.payloadBytes == 0) {
            put(e.chunkOff, tombstoneToken(e.key, e.version));
            statTombstones_.add();
        } else {
            const auto tokens =
                unit_aligned ? std::uint32_t(divCeil(e.payloadBytes,
                                                     kChunkBytes))
                             : e.chunks;
            for (std::uint32_t c = 0; c < tokens; ++c)
                put(e.chunkOff + c, dataChunkToken(e.key, e.version, c));
        }
        statJournalLogs_.add();
        statJournalChunksStored_.add(e.chunks);
        statJournalPayloadBytes_.add(e.payloadBytes);
        payloadBytes_[half] += e.payloadBytes;
    }
    tail_[half] = payload.back();
    appendChunk_[half] = end_chunk;
    logsAppended_[half] += placed.size();

    statJournalFlushes_.add();
    statJournalSectorsWritten_.add(payload.size());

    Command cmd = Command::write(area_.start[half] + s0,
                                 std::move(payload), IoCause::Journal);
    {
        // Per-unit OOB annotations let the device rebuild remaps of
        // journal units after power loss (paper §III-G); the backend
        // decides which units carry which destination.
        const std::uint32_t uc = unitChunks();
        const std::uint64_t first_unit = first_chunk / uc;
        std::vector<OobEntry> unit_oob(divCeil(end_chunk, uc) -
                                       first_unit);
        bool any = false;
        for (const Placed &pl : placed) {
            any |= format_.annotate(
                pl.entry,
                &unit_oob[pl.entry.chunkOff / uc - first_unit]);
        }
        if (any)
            cmd.unitOob = std::move(unit_oob);
    }
    const Tick submitted = eq_.now();
    const std::uint64_t group_sectors = s1 - s0; // payload was moved
    // Latency attribution: the group members' ops are replayed after
    // the (synchronous) command processing below, so collect them now
    // before `placed` moves into the completion. The completion lambda
    // itself must not grow (Ssd::Completion inline-storage budget).
    std::vector<obs::OpToken> member_ops;
    if (obs::attributionOn()) {
        member_ops.reserve(placed.size());
        for (const Placed &pl : placed)
            member_ops.push_back(pl.op);
    }
    ssd_.submit(std::move(cmd),
                [this, submitted, group_sectors,
                 placed = std::move(placed)](
                    const CmdResult &r) mutable {
        const Tick done = r.require();
        obs::span(obs::Cat::Engine, kJournalLane,
                  "journal.groupCommit", submitted, done,
                  {{"logs", placed.size()},
                   {"sectors", group_sectors}});
        for (Placed &pl : placed) {
            format_.onCommit(pl.entry);
            if (pl.cb)
                pl.cb(pl.entry, done);
        }
        flushInFlight_ = false;
        if (quiesceCb_) {
            // A checkpoint is waiting to switch halves; hold further
            // flushes until the owner has snapshotted the old half.
            auto cb = std::move(quiesceCb_);
            quiesceCb_ = nullptr;
            cb();
        } else {
            startFlush();
        }
    });
    if (!member_ops.empty()) {
        // Every stage boundary of the flush is known once the
        // (synchronous) command processing above returned. Charge
        // each member op's buffered wait — split around any space
        // stall it sat through — then replay the device-stage
        // segments captured for this command. All marks are monotone,
        // so ops appended after the stall skip its window and a
        // multi-record op absorbs repeats as no-ops.
        obs::AttributionCollector *a = obs::installedAttribution();
        for (obs::OpToken op : member_ops) {
            if (op == obs::kNoOpToken)
                continue;
            a->mark(op, obs::Stage::JournalWait, stallStart_);
            a->mark(op, obs::Stage::CheckpointStall, stallEnd_);
            a->mark(op, obs::Stage::JournalWait, submitted);
            a->applyCmdTo(op);
        }
    }
}

void
JournalManager::switchHalves()
{
    assert(otherHalfFree() && "both journal halves busy");
    halfBusy_[active_] = true;
    active_ ^= 1;
    assert(appendChunk_[active_] == 0);
    // Resume flushing: the switch both clears any space stall and
    // ends the quiesce window that held buffered appends back.
    if (stalledForSpace_)
        stallEnd_ = eq_.now();
    stalledForSpace_ = false;
    startFlush();
}

void
JournalManager::onHalfFreed(std::uint8_t half)
{
    assert(halfBusy_[half]);
    halfBusy_[half] = false;
    appendChunk_[half] = 0;
    logsAppended_[half] = 0;
    payloadBytes_[half] = 0;
    if (stalledForSpace_ && onPressure_) {
        // Still wedged on the (full) active half: ask for another
        // checkpoint now that a switch target exists.
        onPressure_();
    }
}

std::vector<ParsedRecord>
parseRecords(const Ssd &ssd, Lba start, std::uint64_t sectors,
             std::uint32_t stride)
{
    std::vector<SectorData> buf(sectors);
    ssd.peek(start, std::uint32_t(sectors), buf.data());
    const std::uint64_t nchunks = sectors * kChunksPerSector;
    auto token = [&buf](std::uint64_t pos) {
        return decodeToken(
            buf[pos / kChunksPerSector].chunks[pos % kChunksPerSector]);
    };
    std::vector<ParsedRecord> recs;
    std::uint64_t pos = 0;
    while (pos < nchunks) {
        const DecodedToken d = token(pos);
        if (d.tag == TokenTag::Tombstone) {
            recs.push_back(
                ParsedRecord{d.key, std::uint32_t(d.version), pos, 0});
            pos += stride;
            continue;
        }
        if (d.tag != TokenTag::Data || d.aux != 0) {
            pos += stride;
            continue;
        }
        std::uint64_t n = 1;
        while (pos + n < nchunks) {
            const DecodedToken dn = token(pos + n);
            if (dn.tag == TokenTag::Data && dn.key == d.key &&
                dn.version == d.version && dn.aux == n) {
                ++n;
            } else {
                break;
            }
        }
        recs.push_back(ParsedRecord{d.key, std::uint32_t(d.version),
                                    pos, std::uint32_t(n)});
        pos += alignUp(n, stride);
    }
    return recs;
}

} // namespace checkin
