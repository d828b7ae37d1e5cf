#include "ssd/isce.h"

#include <algorithm>

namespace checkin {

bool
Isce::canRemap(const CowPair &pair) const
{
    if (pair.forceCopy || pair.srcChunkShift != 0)
        return false;
    const std::uint32_t spu = ftl_.sectorsPerUnit();
    const std::uint32_t chunks_per_unit = spu * kChunksPerSector;
    if (pair.src % spu != 0 || pair.dst % spu != 0 ||
        pair.chunks % chunks_per_unit != 0) {
        return false;
    }
    const Lpn first = pair.src / spu;
    const Lpn units = pair.chunks / chunks_per_unit;
    for (Lpn u = 0; u < units; ++u) {
        if (!ftl_.isMapped(first + u))
            return false;
    }
    return true;
}

Tick
Isce::copyRecord(const CowPair &pair, Tick start)
{
    // Chunk-exact gather: read the source pages, extract the record's
    // chunk run, and rewrite it at the destination (chunk 0 aligned).
    const std::uint32_t src_sectors = pair.srcSectors();
    const std::uint32_t dst_sectors = pair.dstSectors();
    srcScratch_.resize(src_sectors);
    ftl_.peekSectors(pair.src, src_sectors, srcScratch_.data());
    const Tick fetched =
        ftl_.readSectors(pair.src, src_sectors, IoCause::Checkpoint,
                         start);
    // Chunks past the record stay empty in the destination.
    const SectorData *out = srcScratch_.data();
    if (pair.srcChunkShift == 0) {
        // Already chunk 0 aligned: the source sectors are the payload
        // once the tail of the last one is cleared.
        const std::uint32_t tail = pair.chunks % kChunksPerSector;
        if (tail != 0) {
            auto &last = srcScratch_[dst_sectors - 1].chunks;
            std::fill(last.begin() + tail, last.end(), 0);
        }
    } else {
        dstScratch_.assign(dst_sectors, SectorData{});
        for (std::uint32_t c = 0; c < pair.chunks; ++c) {
            const std::uint32_t s = pair.srcChunkShift + c;
            dstScratch_[c / kChunksPerSector]
                .chunks[c % kChunksPerSector] =
                srcScratch_[s / kChunksPerSector]
                    .chunks[s % kChunksPerSector];
        }
        out = dstScratch_.data();
    }
    return ftl_.writeSectors(pair.dst, dst_sectors, out,
                             IoCause::Checkpoint, fetched,
                             pair.version);
}

Tick
Isce::bufferSmallRecord(const CowPair &pair, Tick start)
{
    // Gather the record's chunks from the journal into device DRAM.
    const std::uint32_t src_sectors = pair.srcSectors();
    srcScratch_.resize(src_sectors);
    ftl_.peekSectors(pair.src, src_sectors, srcScratch_.data());
    // Sources may themselves sit in the buffer of a previous round
    // (they do not: sources are journal LBAs, never buffered).
    const Tick fetched = ftl_.readSectors(
        pair.src, src_sectors, IoCause::Checkpoint, start);
    const std::uint32_t dst_sectors = pair.dstSectors();
    for (std::uint32_t s = 0; s < dst_sectors; ++s) {
        SectorData out;
        for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
            const std::uint32_t idx = s * kChunksPerSector + c;
            if (idx >= pair.chunks)
                break;
            const std::uint32_t pos = pair.srcChunkShift + idx;
            out.chunks[c] = srcScratch_[pos / kChunksPerSector]
                                .chunks[pos % kChunksPerSector];
        }
        // Replacing an existing entry elides the previous version's
        // flash write entirely.
        auto it = smallBuf_.find(pair.dst + s);
        if (it != smallBuf_.end()) {
            it->second = BufferedSector{out, pair.version};
            sElidedWrites_.add();
        } else {
            smallBuf_.emplace(pair.dst + s,
                              BufferedSector{out, pair.version});
        }
    }
    sBufferedRecords_.add();
    if (obs::traceOn()) {
        obs::instant(obs::Cat::Ssd, kIsceLane, "isce.buffer",
                     fetched, {{"chunks", pair.chunks}});
        obs::counterSample(obs::Cat::Ssd, kIsceLane, "isce.smallBuf",
                           fetched, smallBuf_.size());
    }
    return fetched;
}

Tick
Isce::flushSmallBuffer(Tick start)
{
    // Aggregate: coalesce contiguous sectors into single writes so a
    // multi-sector record (or adjacent records) costs one pass
    // through the FTL instead of per-sector read-modify-writes.
    flushOrder_.clear();
    for (const auto &[lba, entry] : smallBuf_)
        flushOrder_.emplace_back(lba, &entry);
    std::sort(flushOrder_.begin(), flushOrder_.end());

    Tick done = start;
    std::size_t i = 0;
    const std::uint32_t spu = ftl_.sectorsPerUnit();
    while (i < flushOrder_.size()) {
        std::size_t j = i + 1;
        while (j < flushOrder_.size() &&
               flushOrder_[j].first == flushOrder_[j - 1].first + 1)
            ++j;
        // Per-unit OOB carries the buffered versions so a power-loss
        // rebuild ranks these writes correctly against journal
        // annotations.
        const Lba run_lba = flushOrder_[i].first;
        const Lpn first_unit = run_lba / spu;
        flushOob_.assign(flushOrder_[j - 1].first / spu - first_unit + 1,
                         OobEntry{});
        flushRun_.clear();
        std::uint64_t run_version = 0;
        for (std::size_t k = i; k < j; ++k) {
            const auto &[lba, b] = flushOrder_[k];
            flushRun_.push_back(b->data);
            run_version = std::max(run_version, b->version);
            std::uint64_t &unit_version =
                flushOob_[lba / spu - first_unit].version;
            unit_version = std::max(unit_version, b->version);
        }
        done = std::max(
            done, ftl_.writeSectors(run_lba,
                                    std::uint32_t(flushRun_.size()),
                                    flushRun_.data(),
                                    IoCause::Checkpoint, start,
                                    run_version, flushOob_.data()));
        i = j;
    }
    sBufferFlushes_.add();
    sFlushedSectors_.add(smallBuf_.size());
    if (obs::traceOn()) {
        obs::span(obs::Cat::Ssd, kIsceLane, "isce.flush", start, done,
                  {{"sectors", smallBuf_.size()}});
        obs::counterSample(obs::Cat::Ssd, kIsceLane, "isce.smallBuf",
                           done, 0);
    }
    smallBuf_.clear();
    return done;
}

bool
Isce::overlay(Lba lba, SectorData *out) const
{
    const auto it = smallBuf_.find(lba);
    if (it == smallBuf_.end())
        return false;
    *out = it->second.data;
    return true;
}

void
Isce::invalidateRange(Lba lba, std::uint64_t nsect)
{
    if (smallBuf_.empty())
        return;
    // For large ranges (trims) iterating the buffer is cheaper.
    if (nsect > smallBuf_.size() * 4) {
        for (auto it = smallBuf_.begin(); it != smallBuf_.end();) {
            if (it->first >= lba && it->first < lba + nsect)
                it = smallBuf_.erase(it);
            else
                ++it;
        }
        return;
    }
    for (std::uint64_t s = 0; s < nsect; ++s)
        smallBuf_.erase(lba + s);
}

Tick
Isce::checkpoint(const std::vector<CowPair> &pairs, Tick start,
                 bool remap_allowed)
{
    Tick done = start;
    const std::uint32_t spu = ftl_.sectorsPerUnit();
    const std::uint32_t chunks_per_unit = spu * kChunksPerSector;
    for (const CowPair &pair : pairs) {
        // Per-entry embedded-CPU decode/lookup time (Algorithm 1's
        // JMT walk), serialized on the controller core.
        const Tick t = cpu_.reserve(start, cfg_.remapEntryTime);
        if (remap_allowed && canRemap(pair)) {
            // Newer than anything buffered for this destination.
            invalidateRange(pair.dst, pair.dstSectors());
            const Lpn src0 = pair.src / spu;
            const Lpn dst0 = pair.dst / spu;
            const Lpn units = pair.chunks / chunks_per_unit;
            Tick t_pair = t;
            for (Lpn u = 0; u < units; ++u) {
                t_pair = std::max(
                    t_pair, ftl_.remapUnit(src0 + u, dst0 + u, t));
            }
            sRemappedPairs_.add();
            sRemappedUnits_.add(units);
            obs::instant(obs::Cat::Ssd, kIsceLane, "isce.remap", t,
                         {{"units", units}});
            done = std::max(done, t_pair);
        } else if (remap_allowed && pair.forceCopy &&
                   cfg_.smallBufferSectors > 0 &&
                   pair.chunks < chunks_per_unit) {
            // PARTIAL/MERGED record flagged by a sector-aligning
            // engine: defer through the small-copy buffer
            // (paper §III-E). Unaligned raw records (ISC-C) take
            // the immediate copy path below.
            done = std::max(done, bufferSmallRecord(pair, t));
        } else {
            invalidateRange(pair.dst, pair.dstSectors());
            const Tick copied = copyRecord(pair, t);
            obs::span(obs::Cat::Ssd, kIsceLane, "isce.copy", t,
                      copied, {{"chunks", pair.chunks}});
            done = std::max(done, copied);
            sCopiedPairs_.add();
            sCopiedChunks_.add(pair.chunks);
        }
    }
    if (smallBuf_.size() >= cfg_.smallBufferSectors &&
        cfg_.smallBufferSectors > 0) {
        done = std::max(done, flushSmallBuffer(done));
    }
    return done;
}

std::uint32_t
Isce::onLogsDeleted(Tick now)
{
    sLogDeletions_.add();
    // The deallocator only steals the flash array for GC when it is
    // idle (paper §III-F): under load the reclaim is deferred.
    if (ftl_.nand().allIdleAt() > now)
        return 0;
    const std::uint32_t reclaimed = ftl_.runBackgroundGc(now);
    sIdleGcBlocks_.add(reclaimed);
    return reclaimed;
}

} // namespace checkin
