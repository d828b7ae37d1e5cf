#include "engine/lsm/lsm_engine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/record.h"
#include "obs/trace.h"

namespace checkin {

LsmEngine::LsmEngine(SimContext &ctx, Ssd &ssd,
                     const EngineConfig &cfg)
    : LsmEngine(ctx, ssd, cfg,
                LsmLayout::compute(cfg, ssd.capacitySectors(),
                                   ssd.ftl().sectorsPerUnit()))
{
}

LsmEngine::LsmEngine(SimContext &ctx, Ssd &ssd,
                     const EngineConfig &cfg, const LsmLayout &layout)
    : JournaledEngine(ctx, ssd, cfg,
                      JournalArea{{layout.walStart[0],
                                   layout.walStart[1]},
                                  layout.walSectors},
                      RecordLayout::UnitAligned),
      layout_(layout),
      keymap_(cfg.recordCount)
{
    obs::nameLane(obs::Cat::Engine, kCkptLane, "flush");
    // Every record takes at least one unit of its half.
    for (std::vector<JmtEntry> &recs : halfRecords_)
        recs.reserve(layout_.walUnits());
}

std::uint32_t
LsmEngine::recordUnits(std::uint32_t chunks) const
{
    // A tombstone is a single token alone in one unit; data records
    // are padded up to the next unit boundary.
    if (chunks == 0)
        return 1;
    return std::uint32_t(divCeil(chunks, layout_.unitChunks()));
}

Lba
LsmEngine::lbaOf(const Loc &loc) const
{
    switch (loc.area) {
      case Loc::Area::Wal:
        return layout_.walLba(loc.idx, loc.unitOff);
      case Loc::Area::L0:
        return layout_.l0Lba(loc.idx, loc.unitOff);
      case Loc::Area::L1:
        return layout_.l1Lba(loc.idx, loc.unitOff);
      case Loc::Area::None: break;
    }
    throw std::logic_error("lsm: record has no location");
}

std::uint32_t
LsmEngine::reserveRegion()
{
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        if (!regionBusy_[r]) {
            regionBusy_[r] = true;
            return r;
        }
    }
    throw std::logic_error("lsm: no free L0 region");
}

// ----------------------------------------------------------------------
// Load
// ----------------------------------------------------------------------

void
LsmEngine::load(
    const std::function<std::uint32_t(std::uint64_t)> &size_of)
{
    // Populate L1 ping 0 with version-1 records, packed in key order.
    std::uint64_t cursor = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const std::uint32_t bytes = size_of(key);
        const auto chunks =
            std::uint32_t(divCeil(bytes, kChunkBytes));
        const std::uint32_t units = recordUnits(chunks);
        std::vector<SectorData> payload(units * layout_.unitSectors);
        for (std::uint32_t c = 0; c < chunks; ++c) {
            payload[c / kChunksPerSector]
                .chunks[c % kChunksPerSector] =
                dataChunkToken(key, 1, c);
        }
        ssd_.submitSync(Command::write(layout_.l1Lba(0, cursor),
                                       std::move(payload),
                                       IoCause::Query, globalSeq_++));
        KeyState &st = keymap_[key];
        st.version = 1;
        st.assignedVersion = 1;
        st.chunks = chunks;
        st.loc = Loc{Loc::Area::L1, 0, cursor};
        st.dataVersion = 1;
        st.dataChunks = chunks;
        st.dataLoc = st.loc;
        cursor += units;
    }
    ping_ = 0;
    l1UsedUnits_[0] = cursor;
    ssd_.submitSync(buildManifestCommand());
    halfRegion_[0] = reserveRegion();
    stats_.add("engine.loadedKeys", cfg_.recordCount);
}

void
LsmEngine::doGet(std::uint64_t key, QueryCb cb)
{
    assert(key < cfg_.recordCount);
    statGets_.add();
    const KeyState st = keymap_[key];
    const bool ckpt_at_submit = ckptInProgress_;
    if (st.version == 0 || st.chunks == 0) {
        statGetMisses_.add();
        eq_.scheduleAfter(0, [this, cb = std::move(cb),
                              ckpt_at_submit] {
            cb(QueryResult{eq_.now(), ckpt_at_submit, false});
        });
        return;
    }
    verifyKeyContent(key, st);
    if (st.loc.area == Loc::Area::Wal)
        statGetsFromJournal_.add();
    const auto nsect =
        std::uint32_t(divCeil(st.chunks, kChunksPerSector));
    ssd_.submit(Command::read(lbaOf(st.loc), nsect, IoCause::Query),
                [this, cb = std::move(cb),
                 ckpt_at_submit](const CmdResult &r) {
                    cb(QueryResult{
                        r.require(),
                        ckpt_at_submit || ckptInProgress_, true});
                });
}

void
LsmEngine::doScan(std::uint64_t start_key, std::uint32_t count,
                  QueryCb cb)
{
    assert(start_key < cfg_.recordCount);
    stats_.add("engine.scans");
    const std::uint64_t end = std::min<std::uint64_t>(
        cfg_.recordCount, start_key + count);
    const std::shared_ptr<ScanJob> job = newScanJob(std::move(cb));

    // L1 residents coalesce into one sequential read (L1 is packed
    // in key order); WAL/L0 residents are fetched individually.
    std::uint64_t l1_first = kInvalidAddr;
    std::uint64_t l1_end = 0;
    for (std::uint64_t key = start_key; key < end; ++key) {
        const KeyState st = keymap_[key];
        if (st.version == 0 || st.chunks == 0)
            continue;
        verifyKeyContent(key, st);
        ++job->scanned;
        const std::uint32_t units = recordUnits(st.chunks);
        if (st.loc.area == Loc::Area::L1 && st.loc.idx == ping_) {
            l1_first = std::min(l1_first, st.loc.unitOff);
            l1_end = std::max(l1_end, st.loc.unitOff + units);
        } else {
            submitScanRead(job, lbaOf(st.loc),
                           divCeil(st.chunks, kChunksPerSector));
        }
    }
    if (l1_first != kInvalidAddr) {
        const std::uint64_t nsect =
            (l1_end - l1_first) * layout_.unitSectors;
        stats_.add("engine.scanSequentialSectors", nsect);
        submitScanRead(job, layout_.l1Lba(ping_, l1_first), nsect);
    }
    launchScan(job);
}

// ----------------------------------------------------------------------
// WAL (shared journal) hooks
// ----------------------------------------------------------------------

bool
LsmEngine::annotateRecord(const JmtEntry &e, OobEntry *unit)
{
    // Unit i of the half promotes to unit i of the half's L0 region,
    // so a remap promotion stays durable across sudden power loss
    // (paper §III-G).
    const std::uint32_t unit_chunks = layout_.unitChunks();
    const std::uint64_t first = e.chunkOff / unit_chunks;
    for (std::uint32_t k = 0; k < e.chunks / unit_chunks; ++k) {
        unit[k].version = globalSeq_++;
        unit[k].targetLpn =
            layout_.l0UnitLpn(halfRegion_[e.half], first + k);
    }
    return true;
}

void
LsmEngine::applyCommit(const JmtEntry &e, bool /*in_batch*/)
{
    KeyState &st = keymap_[e.key];
    if (e.version > st.version) {
        st.version = e.version;
        st.chunks = std::uint32_t(divCeil(e.payloadBytes, kChunkBytes));
        st.loc = Loc{Loc::Area::Wal, e.half,
                     e.chunkOff / layout_.unitChunks()};
    }
}

// ----------------------------------------------------------------------
// Flush (checkpoint) path
// ----------------------------------------------------------------------

void
LsmEngine::startCheckpoint()
{
    markCheckpointStart();
    obs::instant(obs::Cat::Engine, kCkptLane, "flush.start",
                 ckptStart_,
                 {{"walRecords", journal_.logsInActiveHalf()}});
    // Wait for any in-flight group commit: its records belong to the
    // half being frozen and must be in the flush snapshot.
    journal_.quiesce([this] { onJournalQuiesced(); });
}

void
LsmEngine::onJournalQuiesced()
{
    const std::uint8_t half = journal_.activeHalf();
    const std::uint32_t region = halfRegion_[half];
    const std::uint32_t unit_chunks = layout_.unitChunks();
    // The run occupies the frozen half's written prefix 1:1.
    regionUsedUnits_[region] =
        journal_.activeJournalBytes() / kChunkBytes / unit_chunks;

    // Appends continue in the other (clean) half during the flush;
    // its activation gets a fresh L0 region assignment.
    halfRegion_[half ^ 1] = reserveRegion();
    const std::vector<JmtEntry> &recs = halfRecords_[half];
    stats_.add("engine.ckptLogsSeen", recs.size());
    stats_.add("engine.ckptLatestEntries", recs.size());
    openCheckpointRecord(recs);
    journal_.switchHalves();

    if (recs.empty()) {
        onFlushDataDone(half, region);
        return;
    }
    // Promote the frozen half with identity-offset remap pairs: WAL
    // unit i becomes region unit i, exactly what the append-time OOB
    // annotations already promise the device.
    std::vector<Command> cmds;
    std::vector<CowPair> pairs;
    for (const JmtEntry &r : recs) {
        const std::uint64_t unit = r.chunkOff / unit_chunks;
        pairs.push_back(CowPair::make(
            layout_.walLba(half, unit), 0, layout_.l0Lba(region, unit),
            r.chunks, globalSeq_++, /*force_copy=*/false));
        if (pairs.size() == cfg_.maxPairsPerCommand) {
            cmds.push_back(
                Command::checkpointRemap(std::move(pairs)));
            pairs.clear();
        }
    }
    if (!pairs.empty())
        cmds.push_back(Command::checkpointRemap(std::move(pairs)));
    auto job = std::make_shared<FanOut>();
    job->outstanding = cmds.size();
    job->done = [this, half, region](Tick) {
        onFlushDataDone(half, region);
    };
    for (Command &c : cmds) {
        stats_.add("engine.ckptRemapCommands");
        ssd_.submit(std::move(c),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

void
LsmEngine::onFlushDataDone(std::uint8_t half, std::uint32_t region)
{
    const std::vector<JmtEntry> &recs = halfRecords_[half];
    const std::uint32_t unit_chunks = layout_.unitChunks();
    if (regionUsedUnits_[region] > 0)
        ++usedRuns_;
    for (const JmtEntry &r : recs) {
        KeyState &st = keymap_[r.key];
        const Loc nl{Loc::Area::L0, std::uint8_t(region),
                     r.chunkOff / unit_chunks};
        if (st.version == r.version &&
            st.loc.area == Loc::Area::Wal) {
            st.loc = nl;
        }
        if (r.version > st.dataVersion) {
            st.dataVersion = r.version;
            st.dataChunks =
                std::uint32_t(divCeil(r.payloadBytes, kChunkBytes));
            st.dataLoc = nl;
        }
    }
    ckptDataDone_ = std::max(eq_.now(), ckptStart_);
    stats_.add("engine.ckptDataTicks", ckptDataDone_ - ckptStart_);
    obs::span(obs::Cat::Engine, kCkptLane, "flush.data", ckptStart_,
              ckptDataDone_, {{"records", recs.size()}});
    // Manifest before the WAL trim: every crash window leaves either
    // the logs durable or the manifest naming the promoted run.
    ssd_.submit(buildManifestCommand(),
                [this, half](const CmdResult &r) {
        const Tick t2 = r.require();
        ckptMetaDone_ = std::max(t2, ckptDataDone_);
        stats_.add("engine.ckptMetaTicks",
                   ckptMetaDone_ - ckptDataDone_);
        obs::span(obs::Cat::Engine, kCkptLane, "flush.meta",
                  ckptDataDone_, ckptMetaDone_);
        ssd_.submit(Command::deleteLogs(layout_.walStart[half],
                                        layout_.walSectors),
                    [this, half](const CmdResult &r2) {
            const Tick t3 = r2.require();
            stats_.add("engine.ckptDeleteTicks",
                       t3 > ckptMetaDone_ ? t3 - ckptMetaDone_ : 0);
            obs::span(obs::Cat::Engine, kCkptLane, "flush.delete",
                      ckptMetaDone_, t3);
            halfRecords_[half].clear();
            journal_.onHalfFreed(half);
            if (usedRuns_ >= kLsmCompactRuns)
                startCompaction();
            else
                finishCheckpoint(t3, "flush", {});
        });
    });
}

// ----------------------------------------------------------------------
// Compaction
// ----------------------------------------------------------------------

std::vector<LsmEngine::CompactMove>
LsmEngine::planCompaction() const
{
    // Fold every key's newest data-area copy — tombstones included,
    // so version ordering survives trimmed-WAL resurrection after a
    // power-loss rebuild — into the other L1 ping, packed in key
    // order. The merge itself runs inside the device (force-copy CoW
    // pairs); the host only names source and destination.
    std::vector<CompactMove> moves;
    std::uint64_t cursor = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const KeyState &st = keymap_[key];
        if (st.dataVersion == 0)
            continue;
        CompactMove m;
        m.key = key;
        m.version = st.dataVersion;
        m.chunks = st.dataChunks;
        m.srcLba = lbaOf(st.dataLoc);
        m.dstUnitOff = cursor;
        m.units = recordUnits(st.dataChunks);
        cursor += m.units;
        moves.push_back(m);
    }
    assert(cursor <= layout_.l1Units());
    return moves;
}

void
LsmEngine::applyCompaction(const std::vector<CompactMove> &moves,
                           std::uint8_t new_ping)
{
    std::uint64_t cursor = 0;
    for (const CompactMove &m : moves) {
        KeyState &st = keymap_[m.key];
        const Loc nl{Loc::Area::L1, new_ping, m.dstUnitOff};
        if (st.version == m.version)
            st.loc = nl;
        st.dataLoc = nl;
        cursor = m.dstUnitOff + m.units;
    }
    const std::uint8_t old_ping = ping_;
    ping_ = new_ping;
    l1UsedUnits_[new_ping] = cursor;
    l1UsedUnits_[old_ping] = 0;
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        if (regionUsedUnits_[r] > 0) {
            regionUsedUnits_[r] = 0;
            regionBusy_[r] = false;
        }
    }
    usedRuns_ = 0;
    stats_.add("engine.compactedRecords", moves.size());
    stats_.add("engine.mergedUnits", cursor);
}

void
LsmEngine::compactionTrims(std::uint8_t old_ping,
                           const std::vector<std::uint32_t> &regions,
                           std::uint64_t old_l1_units,
                           std::function<void(Tick)> cb)
{
    auto job = std::make_shared<FanOut>();
    job->outstanding = regions.size() + (old_l1_units > 0 ? 1 : 0);
    job->done = std::move(cb);
    if (job->outstanding == 0) {
        job->done(eq_.now());
        return;
    }
    for (std::uint32_t r : regions) {
        ssd_.submit(Command::trim(layout_.l0Lba(r, 0),
                                  layout_.regionSectors),
                    [job](const CmdResult &res) {
                        job->complete(res);
                    });
    }
    if (old_l1_units > 0) {
        ssd_.submit(Command::trim(layout_.l1Lba(old_ping, 0),
                                  layout_.l1Sectors),
                    [job](const CmdResult &res) {
                        job->complete(res);
                    });
    }
}

void
LsmEngine::startCompaction()
{
    stats_.add("engine.compactions");
    const std::uint8_t old_ping = ping_;
    const std::uint8_t new_ping = ping_ ^ 1;
    const std::uint64_t old_l1_units = l1UsedUnits_[old_ping];
    auto regions = std::make_shared<std::vector<std::uint32_t>>();
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        if (regionUsedUnits_[r] > 0)
            regions->push_back(r);
    }
    auto moves = std::make_shared<std::vector<CompactMove>>(
        planCompaction());
    obs::instant(obs::Cat::Engine, kCkptLane, "compact.start",
                 eq_.now(), {{"records", moves->size()}});

    const std::uint32_t unit_chunks = layout_.unitChunks();
    std::vector<Command> cmds;
    std::vector<CowPair> pairs;
    for (const CompactMove &m : *moves) {
        pairs.push_back(CowPair::make(
            m.srcLba, 0, layout_.l1Lba(new_ping, m.dstUnitOff),
            m.units * unit_chunks, globalSeq_++,
            /*force_copy=*/true));
        if (pairs.size() == cfg_.maxPairsPerCommand) {
            cmds.push_back(
                Command::checkpointRemap(std::move(pairs)));
            pairs.clear();
        }
    }
    if (!pairs.empty())
        cmds.push_back(Command::checkpointRemap(std::move(pairs)));

    auto after_copies = [this, moves, regions, old_ping, new_ping,
                         old_l1_units](Tick t) {
        (void)t;
        applyCompaction(*moves, new_ping);
        // Manifest (new ping, regions cleared) before the trims.
        ssd_.submit(buildManifestCommand(),
                    [this, regions, old_ping,
                     old_l1_units](const CmdResult &r) {
            r.require();
            compactionTrims(old_ping, *regions, old_l1_units,
                            [this](Tick t3) {
                                finishCheckpoint(t3, "flush", {});
                            });
        });
    };
    if (cmds.empty()) {
        after_copies(eq_.now());
        return;
    }
    auto job = std::make_shared<FanOut>();
    job->outstanding = cmds.size();
    job->done = after_copies;
    for (Command &c : cmds) {
        stats_.add("engine.compactionCowCommands");
        ssd_.submit(std::move(c),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

// ----------------------------------------------------------------------
// Manifest
// ----------------------------------------------------------------------

Command
LsmEngine::buildManifestCommand()
{
    std::vector<SectorData> payload(layout_.manifestSectors);
    auto put = [&payload](std::uint64_t idx, std::uint64_t value) {
        payload[idx / kChunksPerSector]
            .chunks[idx % kChunksPerSector] =
            catalogToken(idx, value, 0);
    };
    put(0, 1); // format magic
    put(1, ping_);
    put(2, globalSeq_ & 0xffffff);
    put(3, (globalSeq_ >> 24) & 0xffffff);
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r)
        put(4 + r, regionUsedUnits_[r]);
    put(4 + kLsmL0Regions, l1UsedUnits_[0]);
    put(5 + kLsmL0Regions, l1UsedUnits_[1]);
    stats_.add("engine.manifestWrites");
    return Command::write(layout_.manifestStart, std::move(payload),
                          IoCause::Metadata, globalSeq_++);
}

LsmEngine::Manifest
LsmEngine::readManifest() const
{
    Manifest m;
    std::vector<SectorData> buf(layout_.manifestSectors);
    ssd_.peek(layout_.manifestStart,
              std::uint32_t(layout_.manifestSectors), buf.data());
    auto get = [&buf](std::uint64_t idx) -> DecodedToken {
        return decodeToken(buf[idx / kChunksPerSector]
                               .chunks[idx % kChunksPerSector]);
    };
    const DecodedToken magic = get(0);
    if (magic.tag != TokenTag::Catalog || magic.key != 0 ||
        magic.version != 1) {
        return m; // fresh / unformatted device
    }
    m.valid = true;
    m.ping = std::uint8_t(get(1).version);
    m.globalSeq = get(2).version | (get(3).version << 24);
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r)
        m.regionUsedUnits[r] = get(4 + r).version;
    m.l1UsedUnits[0] = get(4 + kLsmL0Regions).version;
    m.l1UsedUnits[1] = get(5 + kLsmL0Regions).version;
    return m;
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

void
LsmEngine::verifyKeyContent(std::uint64_t key,
                            const KeyState &st) const
{
    if (st.version == 0)
        return;
    const Lba lba = lbaOf(st.loc);
    if (st.chunks == 0) {
        // Deleted key: its tombstone record must read back (LSM
        // tombstones stay on-device through compaction).
        SectorData buf;
        ssd_.peek(lba, 1, &buf);
        if (buf.chunks[0] != tombstoneToken(key, st.version)) {
            std::ostringstream os;
            os << "lsm tombstone mismatch: key " << key
               << " version " << st.version << " at lba " << lba;
            throw std::runtime_error(os.str());
        }
        return;
    }
    std::uint64_t got = 0;
    const std::uint32_t c =
        firstBadChunk(key, st.version, lba, 0, st.chunks, got);
    if (c == st.chunks)
        return;
    const DecodedToken d = decodeToken(got);
    std::ostringstream os;
    os << "lsm content mismatch: key " << key << " version "
       << st.version << " chunk " << c << " at lba " << lba
       << " (area=" << int(st.loc.area) << " idx=" << int(st.loc.idx)
       << " unitOff=" << st.loc.unitOff << " chunks=" << st.chunks
       << ") got tag=" << int(d.tag) << " key=" << d.key
       << " ver=" << d.version << " aux=" << d.aux;
    throw std::runtime_error(os.str());
}

std::uint64_t
LsmEngine::verifyAllKeys() const
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

// ----------------------------------------------------------------------
// Recovery
// ----------------------------------------------------------------------

RecoveryInfo
LsmEngine::recover()
{
    RecoveryInfo info;
    const Tick t0 = eq_.now();
    Tick tmax = t0;
    auto sync = [this, &tmax](Command cmd) {
        tmax = std::max(tmax, ssd_.submitSync(std::move(cmd)));
    };

    // 1. Manifest: which L1 ping and L0 regions are authoritative.
    sync(Command::read(layout_.manifestStart,
                       layout_.manifestSectors, IoCause::Metadata));
    const Manifest m = readManifest();
    ping_ = m.ping;
    l1UsedUnits_[0] = m.l1UsedUnits[0];
    l1UsedUnits_[1] = m.l1UsedUnits[1];
    usedRuns_ = 0;
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        regionUsedUnits_[r] = m.regionUsedUnits[r];
        regionBusy_[r] = m.regionUsedUnits[r] > 0;
        if (m.regionUsedUnits[r] > 0)
            ++usedRuns_;
    }
    // Fresh stamps must exceed every stamp the crashed run issued
    // after its last manifest write; slack covers the whole managed
    // area plus margin.
    globalSeq_ = m.globalSeq + 2 * layout_.walUnits() +
                 kLsmL0Regions * layout_.walUnits() +
                 2 * layout_.l1Units() + 1024;

    // 2. Scan the authoritative data areas: L1 ping, then used L0
    //    regions (token versions arbitrate, so order is immaterial).
    const std::uint32_t unit_chunks = layout_.unitChunks();
    auto parse_units = [this](Lba start, std::uint64_t units) {
        return parseRecords(ssd_, start, units * layout_.unitSectors,
                            layout_.unitChunks());
    };
    auto apply_data = [this](const ParsedRecord &r, const Loc &loc) {
        KeyState &st = keymap_[r.key];
        if (r.version > st.dataVersion) {
            st.dataVersion = r.version;
            st.dataChunks = r.chunks;
            st.dataLoc = loc;
        }
    };
    if (l1UsedUnits_[ping_] > 0) {
        sync(Command::read(layout_.l1Lba(ping_, 0),
                           l1UsedUnits_[ping_] * layout_.unitSectors,
                           IoCause::Query));
        for (const ParsedRecord &r :
             parse_units(layout_.l1Lba(ping_, 0),
                         l1UsedUnits_[ping_])) {
            apply_data(r, Loc{Loc::Area::L1, ping_,
                              r.chunkOff / unit_chunks});
        }
    }
    for (std::uint32_t reg = 0; reg < kLsmL0Regions; ++reg) {
        if (regionUsedUnits_[reg] == 0)
            continue;
        sync(Command::read(layout_.l0Lba(reg, 0),
                           regionUsedUnits_[reg] *
                               layout_.unitSectors,
                           IoCause::Query));
        for (const ParsedRecord &r :
             parse_units(layout_.l0Lba(reg, 0),
                         regionUsedUnits_[reg])) {
            apply_data(r, Loc{Loc::Area::L0, std::uint8_t(reg),
                              r.chunkOff / unit_chunks});
        }
    }
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        KeyState &st = keymap_[key];
        if (st.dataVersion == 0)
            continue;
        st.version = st.dataVersion;
        st.assignedVersion = st.dataVersion;
        st.chunks = st.dataChunks;
        st.loc = st.dataLoc;
        ++info.catalogKeys;
    }

    // 3. Scan both WAL halves; records newer than a key's data copy
    //    form the replay set. The strict version filter also defuses
    //    trimmed-WAL resurrection: a half whose logs were deleted can
    //    reappear after a power-loss rebuild (trim leaves the OOB
    //    intact), but its records never out-version the promoted run.
    struct Replay
    {
        std::uint32_t version = 0;
        std::uint32_t chunks = 0;
        std::uint8_t half = 0;
        std::uint64_t unitOff = 0;
        std::uint32_t units = 0;
    };
    std::vector<Replay> best(cfg_.recordCount);
    for (std::uint8_t half = 0; half < 2; ++half) {
        sync(Command::read(layout_.walStart[half],
                           layout_.walSectors, IoCause::Journal));
        for (const ParsedRecord &r :
             parse_units(layout_.walStart[half], layout_.walUnits())) {
            if (r.key >= cfg_.recordCount)
                continue;
            if (r.version <= keymap_[r.key].dataVersion)
                continue;
            Replay &b = best[r.key];
            if (r.version > b.version) {
                b.version = r.version;
                b.chunks = r.chunks;
                b.half = half;
                b.unitOff = r.chunkOff / unit_chunks;
                b.units = recordUnits(r.chunks);
            }
        }
    }

    // 4. Re-flush the replay set into a free region. Force-copy, not
    //    remap: the replayed units' stale annotations may target a
    //    different region, so only a fresh durable write is safe.
    std::uint64_t replayed = 0;
    for (const Replay &b : best) {
        if (b.version > 0)
            ++replayed;
    }
    if (replayed > 0) {
        const std::uint32_t region = reserveRegion();
        std::uint64_t cursor = 0;
        std::vector<CowPair> pairs;
        for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
            const Replay &b = best[key];
            if (b.version == 0)
                continue;
            pairs.push_back(CowPair::make(
                layout_.walLba(b.half, b.unitOff), 0,
                layout_.l0Lba(region, cursor),
                b.units * unit_chunks, globalSeq_++,
                /*force_copy=*/true));
            KeyState &st = keymap_[key];
            st.version = b.version;
            st.assignedVersion = b.version;
            st.chunks = b.chunks;
            st.loc = Loc{Loc::Area::L0, std::uint8_t(region),
                         cursor};
            st.dataVersion = b.version;
            st.dataChunks = b.chunks;
            st.dataLoc = st.loc;
            cursor += b.units;
            if (pairs.size() == cfg_.maxPairsPerCommand) {
                sync(Command::checkpointRemap(std::move(pairs)));
                pairs.clear();
            }
        }
        if (!pairs.empty())
            sync(Command::checkpointRemap(std::move(pairs)));
        regionUsedUnits_[region] = cursor;
        ++usedRuns_;
    }
    info.replayedLogs = replayed;

    // 5. Manifest (also persists the recovery stamp bump), then
    //    release the WAL and every non-authoritative area.
    sync(buildManifestCommand());
    for (std::uint8_t half = 0; half < 2; ++half) {
        sync(Command::deleteLogs(layout_.walStart[half],
                                 layout_.walSectors));
    }
    for (std::uint32_t reg = 0; reg < kLsmL0Regions; ++reg) {
        if (regionUsedUnits_[reg] == 0)
            sync(Command::trim(layout_.l0Lba(reg, 0),
                               layout_.regionSectors));
    }
    sync(Command::trim(layout_.l1Lba(ping_ ^ 1, 0),
                       layout_.l1Sectors));

    // 6. Compact synchronously if the replay pushed L0 to its limit,
    //    so the store restarts with compaction headroom.
    if (usedRuns_ >= kLsmCompactRuns) {
        stats_.add("engine.compactions");
        const std::uint8_t old_ping = ping_;
        const std::uint8_t new_ping = ping_ ^ 1;
        const std::uint64_t old_l1_units = l1UsedUnits_[old_ping];
        std::vector<std::uint32_t> regions;
        for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
            if (regionUsedUnits_[r] > 0)
                regions.push_back(r);
        }
        const std::vector<CompactMove> moves = planCompaction();
        std::vector<CowPair> pairs;
        for (const CompactMove &mv : moves) {
            pairs.push_back(CowPair::make(
                mv.srcLba, 0,
                layout_.l1Lba(new_ping, mv.dstUnitOff),
                mv.units * unit_chunks, globalSeq_++,
                /*force_copy=*/true));
            if (pairs.size() == cfg_.maxPairsPerCommand) {
                stats_.add("engine.compactionCowCommands");
                sync(Command::checkpointRemap(std::move(pairs)));
                pairs.clear();
            }
        }
        if (!pairs.empty()) {
            stats_.add("engine.compactionCowCommands");
            sync(Command::checkpointRemap(std::move(pairs)));
        }
        applyCompaction(moves, new_ping);
        sync(buildManifestCommand());
        for (std::uint32_t r : regions) {
            sync(Command::trim(layout_.l0Lba(r, 0),
                               layout_.regionSectors));
        }
        if (old_l1_units > 0) {
            sync(Command::trim(layout_.l1Lba(old_ping, 0),
                               layout_.l1Sectors));
        }
    }

    // 7. Arm the (fresh) journal's active half.
    halfRegion_[0] = reserveRegion();

    info.duration = tmax > t0 ? tmax - t0 : 0;
    stats_.add("engine.recoveries");
    stats_.add("engine.recoveredLogs", info.replayedLogs);
    return info;
}

} // namespace checkin
