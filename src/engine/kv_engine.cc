#include "engine/kv_engine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/record.h"
#include "obs/trace.h"

namespace checkin {

KvEngine::KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg)
    : KvEngine(ctx, ssd, cfg,
               DiskLayout::compute(cfg, ssd.capacitySectors(),
                                   ssd.ftl().sectorsPerUnit()))
{
}

KvEngine::KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg,
                   const DiskLayout &layout)
    : JournaledEngine(ctx, ssd, cfg,
                      JournalArea{{layout.journalStart[0],
                                   layout.journalStart[1]},
                                  layout.journalSectors},
                      RecordLayout::Algorithm2),
      layout_(layout),
      keymap_(cfg.recordCount),
      hostCache_(cfg.hostCacheBytes),
      strategy_(CheckpointStrategy::create(ssd, layout_, cfg_,
                                           stats_))
{
    obs::nameLane(obs::Cat::Engine, kCkptLane, "checkpoint");
}

void
KvEngine::load(
    const std::function<std::uint32_t(std::uint64_t)> &size_of)
{
    // Populate the data area with version-1 values.
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const std::uint32_t bytes = size_of(key);
        const auto chunks =
            std::uint32_t(divCeil(bytes, kChunkBytes));
        const auto nsect =
            std::uint32_t(divCeil(chunks, kChunksPerSector));
        std::vector<SectorData> payload(nsect);
        for (std::uint32_t c = 0; c < chunks; ++c) {
            payload[c / kChunksPerSector]
                .chunks[c % kChunksPerSector] =
                dataChunkToken(key, 1, c);
        }
        ssd_.submitSync(Command::write(layout_.targetLba(key),
                                       std::move(payload),
                                       IoCause::Query, 1));
        KeyState &st = keymap_[key];
        st.version = 1;
        st.assignedVersion = 1;
        st.storedChunks = chunks;
        st.inJournal = false;
        st.catalogVersion = 1;
        st.catalogChunks = chunks;
    }
    // Persist the full catalog.
    const auto g = std::uint32_t(
        std::max<std::uint32_t>(1, ssd_.ftl().sectorsPerUnit()));
    for (Lba base = layout_.catalogStart;
         base < layout_.catalogStart + layout_.catalogSectors;
         base += g) {
        std::vector<SectorData> payload(g);
        for (std::uint32_t s = 0; s < g; ++s) {
            for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
                const std::uint64_t k =
                    (base - layout_.catalogStart + s) *
                        kCatalogEntriesPerSector +
                    c;
                if (k < cfg_.recordCount) {
                    payload[s].chunks[c] = catalogToken(
                        k, keymap_[k].catalogVersion,
                        keymap_[k].catalogChunks);
                }
            }
        }
        ssd_.submitSync(Command::write(base, std::move(payload),
                                       IoCause::Metadata));
    }
    stats_.add("engine.loadedKeys", cfg_.recordCount);
}

void
KvEngine::doGet(std::uint64_t key, QueryCb cb)
{
    assert(key < cfg_.recordCount);
    statGets_.add();
    const KeyState st = keymap_[key];
    const bool ckpt_at_submit = ckptInProgress_;
    if (st.version == 0 || st.storedChunks == 0) {
        // Never written, or deleted (tombstone / trimmed slot).
        statGetMisses_.add();
        eq_.scheduleAfter(0, [this, cb = std::move(cb),
                              ckpt_at_submit] {
            cb(QueryResult{eq_.now(), ckpt_at_submit, false});
        });
        return;
    }
    verifyKeyContent(key, st);
    if (hostCache_.lookup(key, st.version)) {
        // Served from the block management engine's memory.
        statHostCacheHits_.add();
        eq_.scheduleAfter(0, [this, cb = std::move(cb),
                              ckpt_at_submit] {
            cb(QueryResult{eq_.now(),
                           ckpt_at_submit || ckptInProgress_, true});
        });
        return;
    }
    Lba lba;
    std::uint32_t shift = 0;
    if (st.inJournal) {
        lba = layout_.journalChunkLba(st.half, st.journalChunk);
        shift = std::uint32_t(st.journalChunk % kChunksPerSector);
        statGetsFromJournal_.add();
    } else {
        lba = layout_.targetLba(key);
    }
    const auto nsect = std::uint32_t(
        divCeil(shift + st.storedChunks, kChunksPerSector));
    hostCache_.insert(key, st.version,
                      st.storedChunks * kChunkBytes);
    ssd_.submit(Command::read(lba, nsect, IoCause::Query),
                [this, cb = std::move(cb),
                 ckpt_at_submit](const CmdResult &r) {
                    cb(QueryResult{
                        r.require(),
                        ckpt_at_submit || ckptInProgress_, true});
                });
}

bool
KvEngine::annotateRecord(const JmtEntry &e, OobEntry *unit)
{
    // Annotate every mapping-unit-aligned record's units with its
    // checkpoint target + version so the device can rebuild remaps
    // after power loss (paper §III-G). The condition matches exactly
    // the records the ISCE may remap: Check-In FULL records always
    // qualify; conventional (byte-packed) records qualify when they
    // happen to align. Merged/partial units carry no target (they are
    // copied, not remapped).
    const std::uint32_t uc = ssd_.ftl().mappingUnitBytes() / kChunkBytes;
    if (e.payloadBytes == 0 || e.chunkOff % uc != 0 ||
        e.chunks % uc != 0) {
        return false;
    }
    const Lpn target0 =
        layout_.targetLba(e.key) / ssd_.ftl().sectorsPerUnit();
    for (std::uint32_t k = 0; k < e.chunks / uc; ++k) {
        unit[k].version = e.version;
        unit[k].targetLpn = target0 + k;
    }
    return true;
}

void
KvEngine::onRecordCommitted(const JmtEntry &e)
{
    // Aligned placement reorders records within the group, so guard
    // against a same-key older version landing last.
    auto it = jmt_.find(e.key);
    if (it == jmt_.end() || it->second.version < e.version)
        jmt_[e.key] = e;
}

void
KvEngine::applyCommit(const JmtEntry &e, bool in_batch)
{
    KeyState &st = keymap_[e.key];
    const bool tombstone = e.payloadBytes == 0;
    const bool newer = e.version > st.version;
    if (newer) {
        st.version = e.version;
        st.storedChunks = tombstone ? 0 : e.chunks;
        st.inJournal = true;
        st.half = e.half;
        st.journalChunk = e.chunkOff;
    }
    // A single write always refreshes the host cache; a transaction's
    // record only when it is the key's newest.
    if (newer || !in_batch) {
        if (tombstone)
            hostCache_.erase(e.key);
        else
            hostCache_.insert(e.key, e.version, e.chunks * kChunkBytes);
    }
}

void
KvEngine::doScan(std::uint64_t start_key, std::uint32_t count,
                 QueryCb cb)
{
    assert(start_key < cfg_.recordCount);
    stats_.add("engine.scans");
    const std::uint64_t end = std::min<std::uint64_t>(
        cfg_.recordCount, start_key + count);
    const std::shared_ptr<ScanJob> job = newScanJob(std::move(cb));

    // Journal-resident keys are fetched individually; the data-area
    // residents coalesce into one sequential slot-range read.
    std::uint64_t data_first = kInvalidAddr;
    std::uint64_t data_last = 0;
    for (std::uint64_t key = start_key; key < end; ++key) {
        const KeyState st = keymap_[key];
        if (st.version == 0 || st.storedChunks == 0)
            continue;
        verifyKeyContent(key, st);
        ++job->scanned;
        if (st.inJournal) {
            const auto shift = std::uint32_t(st.journalChunk %
                                             kChunksPerSector);
            submitScanRead(
                job, layout_.journalChunkLba(st.half, st.journalChunk),
                divCeil(shift + st.storedChunks, kChunksPerSector));
        } else {
            data_first = std::min(data_first, key);
            data_last = std::max(data_last, key);
        }
    }
    if (data_first != kInvalidAddr) {
        const std::uint64_t nsect =
            (data_last - data_first + 1) * layout_.slotSectors;
        stats_.add("engine.scanSequentialSectors", nsect);
        submitScanRead(job, layout_.targetLba(data_first), nsect);
    }
    launchScan(job);
}

void
KvEngine::startCheckpoint()
{
    markCheckpointStart();
    obs::instant(obs::Cat::Engine, kCkptLane, "ckpt.start",
                 ckptStart_, {{"jmtEntries", jmt_.size()}});
    // Wait for any in-flight group commit: its records belong to the
    // half being checkpointed and must be in the JMT snapshot.
    journal_.quiesce([this] {
        stats_.add("engine.ckptLogsSeen",
                   journal_.logsInActiveHalf());
        auto entries = std::make_shared<std::vector<JmtEntry>>();
        entries->reserve(jmt_.size());
        for (const auto &[key, entry] : jmt_)
            entries->push_back(entry);
        jmt_.clear();
        journal_.switchHalves();
        stats_.add("engine.ckptLatestEntries", entries->size());
        openCheckpointRecord(*entries);
        const std::uint8_t half = journal_.activeHalf() ^ 1;
        // Tombstones do not move data; they trim their targets.
        auto values = std::make_shared<std::vector<JmtEntry>>();
        auto tombs = std::make_shared<std::vector<JmtEntry>>();
        for (const JmtEntry &e : *entries) {
            (e.payloadBytes == 0 ? *tombs : *values).push_back(e);
        }
        strategy_->run(*values,
                       [this, entries, tombs, half](Tick t) {
            trimTombstones(*tombs, [this, entries, half,
                                    t](Tick t2) {
                onStrategyDone(*entries, half, std::max(t, t2));
            });
        });
    });
}

void
KvEngine::trimTombstones(const std::vector<JmtEntry> &tombs,
                         std::function<void(Tick)> cb)
{
    if (tombs.empty()) {
        cb(eq_.now());
        return;
    }
    auto job = std::make_shared<FanOut>();
    job->outstanding = tombs.size();
    job->done = std::move(cb);
    for (const JmtEntry &e : tombs) {
        stats_.add("engine.ckptTombstoneTrims");
        ssd_.submit(Command::trim(layout_.targetLba(e.key),
                                  layout_.slotSectors),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

void
KvEngine::onStrategyDone(const std::vector<JmtEntry> &entries,
                         std::uint8_t half, Tick t)
{
    (void)t;
    for (const JmtEntry &e : entries) {
        KeyState &st = keymap_[e.key];
        // The data area now holds this version; reads of keys not
        // updated since switch back to the data area.
        if (st.inJournal && st.half == half &&
            st.version == e.version) {
            st.inJournal = false;
        }
        st.catalogVersion = e.version;
        st.catalogChunks = e.payloadBytes == 0 ? 0 : e.chunks;
    }
    // Phase accounting (paper Fig 4): data movement vs metadata vs
    // log deletion.
    ckptDataDone_ = std::max(eq_.now(), ckptStart_);
    stats_.add("engine.ckptDataTicks", ckptDataDone_ - ckptStart_);
    obs::span(obs::Cat::Engine, kCkptLane, "ckpt.data", ckptStart_,
              ckptDataDone_, {{"entries", entries.size()}});
    writeCatalog(entries, [this, half](Tick t2) {
        ckptMetaDone_ = std::max(t2, ckptDataDone_);
        stats_.add("engine.ckptMetaTicks",
                   ckptMetaDone_ - ckptDataDone_);
        obs::span(obs::Cat::Engine, kCkptLane, "ckpt.meta",
                  ckptDataDone_, ckptMetaDone_);
        deleteLogs(half, [this, half](Tick t3) {
            stats_.add("engine.ckptDeleteTicks",
                       t3 > ckptMetaDone_ ? t3 - ckptMetaDone_ : 0);
            obs::span(obs::Cat::Engine, kCkptLane, "ckpt.delete",
                      ckptMetaDone_, t3);
            journal_.onHalfFreed(half);
            finishCheckpoint(t3, "checkpoint", {{"half", half}});
        });
    });
}

void
KvEngine::writeCatalog(const std::vector<JmtEntry> &entries,
                       std::function<void(Tick)> cb)
{
    if (entries.empty()) {
        cb(eq_.now());
        return;
    }
    const auto g = std::uint32_t(
        std::max<std::uint32_t>(1, ssd_.ftl().sectorsPerUnit()));
    std::vector<Lba> &bases = catalogBases_;
    bases.clear();
    for (const JmtEntry &e : entries) {
        const Lba rel = layout_.catalogLba(e.key) -
                        layout_.catalogStart;
        bases.push_back(layout_.catalogStart + alignDown(rel, g));
    }
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
    auto job = std::make_shared<FanOut>();
    job->outstanding = bases.size();
    job->done = std::move(cb);
    for (Lba base : bases) {
        std::vector<SectorData> payload(g);
        for (std::uint32_t s = 0; s < g; ++s) {
            for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
                const std::uint64_t k =
                    (base - layout_.catalogStart + s) *
                        kCatalogEntriesPerSector +
                    c;
                if (k < cfg_.recordCount &&
                    keymap_[k].catalogVersion > 0) {
                    payload[s].chunks[c] = catalogToken(
                        k, keymap_[k].catalogVersion,
                        keymap_[k].catalogChunks);
                }
            }
        }
        stats_.add("engine.catalogSectorsWritten", g);
        ssd_.submit(Command::write(base, std::move(payload),
                                   IoCause::Metadata),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

void
KvEngine::deleteLogs(std::uint8_t half, std::function<void(Tick)> cb)
{
    // Baseline has no vendor extension: plain trim of the half.
    Command c = cfg_.mode == CheckpointMode::Baseline
                    ? Command::trim(layout_.journalStart[half],
                                    layout_.journalSectors)
                    : Command::deleteLogs(layout_.journalStart[half],
                                          layout_.journalSectors);
    ssd_.submit(std::move(c),
                [cb = std::move(cb)](const CmdResult &r) {
                    cb(r.require());
                });
}

void
KvEngine::verifyKeyContent(std::uint64_t key,
                           const KeyState &st) const
{
    if (st.version == 0)
        return;
    if (st.storedChunks == 0) {
        // Deleted key: a journal-resident tombstone must read back;
        // a checkpointed deletion has no on-disk footprint.
        if (!st.inJournal)
            return;
        const Lba lba =
            layout_.journalChunkLba(st.half, st.journalChunk);
        const auto shift =
            std::uint32_t(st.journalChunk % kChunksPerSector);
        SectorData buf;
        ssd_.peek(lba, 1, &buf);
        if (buf.chunks[shift] != tombstoneToken(key, st.version)) {
            std::ostringstream os;
            os << "tombstone mismatch: key " << key << " version "
               << st.version;
            throw std::runtime_error(os.str());
        }
        return;
    }
    Lba lba;
    std::uint32_t shift = 0;
    if (st.inJournal) {
        lba = layout_.journalChunkLba(st.half, st.journalChunk);
        shift = std::uint32_t(st.journalChunk % kChunksPerSector);
    } else {
        lba = layout_.targetLba(key);
    }
    std::uint64_t got = 0;
    const std::uint32_t c = firstBadChunk(key, st.version, lba, shift,
                                          st.storedChunks, got);
    if (c == st.storedChunks)
        return;
    const DecodedToken d = decodeToken(got);
    std::ostringstream os;
    os << "content mismatch: key " << key << " version " << st.version
       << " chunk " << c << " at lba " << lba
       << (st.inJournal ? " (journal" : " (data")
       << " half=" << int(st.half) << " chunkOff=" << st.journalChunk
       << " storedChunks=" << st.storedChunks << ") got tag="
       << int(d.tag) << " key=" << d.key << " ver=" << d.version
       << " aux=" << d.aux;
    throw std::runtime_error(os.str());
}

std::uint64_t
KvEngine::verifyAllKeys() const
{
    std::uint64_t verified = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const KeyState &st = keymap_[key];
        if (st.version == 0)
            continue;
        verifyKeyContent(key, st);
        ++verified;
    }
    return verified;
}

RecoveryInfo
KvEngine::recover()
{
    RecoveryInfo info;
    const Tick t0 = eq_.now();

    // 1. Restore the keymap from the on-disk catalog.
    ssd_.submitSync(Command::read(layout_.catalogStart,
                                  layout_.catalogSectors,
                                  IoCause::Metadata));
    std::vector<SectorData> cat(layout_.catalogSectors);
    ssd_.peek(layout_.catalogStart,
              std::uint32_t(layout_.catalogSectors), cat.data());
    for (std::uint64_t k = 0; k < cfg_.recordCount; ++k) {
        const std::uint64_t tok =
            cat[k / kCatalogEntriesPerSector]
                .chunks[k % kCatalogEntriesPerSector];
        const DecodedToken d = decodeToken(tok);
        if (d.tag != TokenTag::Catalog || d.key != k)
            continue;
        KeyState &st = keymap_[k];
        st.version = std::uint32_t(d.version);
        st.assignedVersion = st.version;
        st.storedChunks = std::uint32_t(d.aux);
        st.inJournal = false;
        st.catalogVersion = st.version;
        st.catalogChunks = st.storedChunks;
        ++info.catalogKeys;
    }

    // 2. Scan both journal halves (pre-read + parse, paper §III-G).
    struct ParsedLog
    {
        ParsedRecord rec;
        std::uint8_t half;
    };
    std::vector<ParsedLog> latest_logs;
    {
        std::unordered_map<std::uint64_t, ParsedLog> latest;
        for (std::uint8_t half = 0; half < 2; ++half) {
            ssd_.submitSync(Command::read(layout_.journalStart[half],
                                          layout_.journalSectors,
                                          IoCause::Journal));
            for (const ParsedRecord &r :
                 parseRecords(ssd_, layout_.journalStart[half],
                              layout_.journalSectors, 1)) {
                if (r.version <= keymap_[r.key].catalogVersion)
                    continue;
                auto it = latest.find(r.key);
                if (it == latest.end() ||
                    it->second.rec.version < r.version) {
                    latest[r.key] = ParsedLog{r, half};
                }
            }
        }
        latest_logs.reserve(latest.size());
        for (auto &[k, log] : latest)
            latest_logs.push_back(log);
    }
    info.replayedLogs = latest_logs.size();

    // 3. Apply replayed logs to the keymap and re-checkpoint them so
    //    the store restarts clean (data area authoritative).
    std::vector<JmtEntry> entries;
    entries.reserve(latest_logs.size());
    const std::uint32_t uc =
        ssd_.ftl().mappingUnitBytes() / kChunkBytes;
    for (const auto &[log, half] : latest_logs) {
        const bool tombstone = log.chunks == 0;
        KeyState &st = keymap_[log.key];
        st.version = log.version;
        st.assignedVersion = log.version;
        st.storedChunks = tombstone ? 0 : log.chunks;
        st.inJournal = true;
        st.half = half;
        st.journalChunk = log.chunkOff;
        JmtEntry e;
        e.key = log.key;
        e.version = log.version;
        e.half = half;
        e.chunkOff = log.chunkOff;
        e.chunks = tombstone ? 1 : log.chunks;
        e.payloadBytes = tombstone ? 0 : log.chunks * kChunkBytes;
        e.type = (!tombstone && log.chunkOff % uc == 0 &&
                  log.chunks % uc == 0)
                     ? LogType::Full
                     : LogType::Partial;
        entries.push_back(e);
    }

    std::vector<JmtEntry> values;
    std::vector<JmtEntry> tombs;
    for (const JmtEntry &e : entries)
        (e.payloadBytes == 0 ? tombs : values).push_back(e);

    bool finished = false;
    Tick end_tick = eq_.now();
    strategy_->run(values, [&](Tick t_values) {
        trimTombstones(tombs, [&, t_values](Tick t_tombs) {
            const Tick t = std::max(t_values, t_tombs);
            for (const JmtEntry &e : entries) {
                KeyState &st = keymap_[e.key];
                st.inJournal = false;
                st.catalogVersion = e.version;
                st.catalogChunks =
                    e.payloadBytes == 0 ? 0 : e.chunks;
            }
            writeCatalog(entries, [&, t](Tick t2) {
                deleteLogs(0, [&, t, t2](Tick t3) {
                    deleteLogs(1, [&, t, t2, t3](Tick t4) {
                        finished = true;
                        end_tick = std::max({t, t2, t3, t4});
                    });
                });
            });
        });
    });
    while (!finished && eq_.step()) {
    }
    if (!finished)
        throw std::logic_error("recovery did not converge");
    info.duration = end_tick - t0;
    stats_.add("engine.recoveries");
    stats_.add("engine.recoveredLogs", info.replayedLogs);
    return info;
}

} // namespace checkin
