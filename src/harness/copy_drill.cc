#include "harness/copy_drill.h"

#include <stdexcept>
#include <utility>

#include "harness/presets.h"

namespace checkin {

namespace {

/** Sectors per aging write. */
constexpr std::uint32_t kAgeWriteSectors = 64;
/** Aging passes over the written areas before giving up. */
constexpr int kMaxAgingPasses = 16;

SectorData
token(std::uint64_t v)
{
    SectorData d;
    for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
        d.chunks[c] = v * kChunksPerSector + c + 1;
    return d;
}

/** True when no free or active block is still factory-fresh. */
bool
aged(const Ssd &ssd)
{
    const BlockManager &bm = ssd.ftl().blockManager();
    const NandFlash &nand = ssd.nand();
    // Active blocks count too: their unprogrammed pages are next.
    for (Pbn b = 0; b < nand.config().totalBlocks(); ++b) {
        const BlockManager::State st = bm.state(b);
        if ((st == BlockManager::State::Free ||
             st == BlockManager::State::Active) &&
            nand.eraseCount(b) == 0) {
            return false;
        }
    }
    return true;
}

} // namespace

void
ageDevice(EventQueue &eq, Ssd &ssd, Lba skip_begin, Lba skip_end)
{
    // Overwrite until GC has recycled every factory-fresh block.
    // Wear-aware allocation hands out fresh blocks first, so this
    // converges within a few passes.
    const Lba cap = ssd.capacitySectors();
    std::uint64_t version = 1;
    for (int pass = 0; !aged(ssd); ++pass) {
        if (pass == kMaxAgingPasses)
            throw std::runtime_error("ageDevice: aging stalled");
        for (Lba lba = 0; lba + kAgeWriteSectors <= cap;
             lba += kAgeWriteSectors) {
            if (lba >= skip_begin && lba < skip_end)
                continue;
            ssd.submit(
                Command::write(lba,
                               std::vector<SectorData>(
                                   kAgeWriteSectors, token(version++)),
                               IoCause::Query),
                [](const CmdResult &r) { r.require(); });
            eq.run();
        }
    }
}

void
primeEventQueue(EventQueue &eq)
{
    // Four events every microsecond for twice the calendar horizon:
    // every wheel bucket, the overflow heap and the active window end
    // up holding far more events than a gate window has pending. The
    // bucket holding `now` is fed through the active window instead,
    // so a second pass from a later start covers it.
    for (int pass = 0; pass < 2; ++pass) {
        const Tick base = eq.now();
        for (Tick t = 0; t < 4 * kMsec; t += kUsec) {
            for (int k = 0; k < 4; ++k)
                eq.schedule(base + t, [] {});
        }
        eq.run();
    }
}

CopyPathDrill::CopyPathDrill(std::uint32_t mapping_unit_bytes,
                             Start start)
{
    ExperimentConfig cfg = presets::small();
    cfg.ftl.mappingUnitBytes = mapping_unit_bytes;
    ssd_ = std::make_unique<Ssd>(ctx_, cfg.nand, cfg.ftl, cfg.ssd);

    // Data area: the first half; journal: the last quarter.
    const Lba cap = ssd_->capacitySectors();
    const std::uint32_t spu = ssd_->ftl().sectorsPerUnit();
    dataSectors_ = cap / 2 / (4 * spu) * (4 * spu);
    journalBase_ = cap - cap / 4;
    const Lba window = kRecordsPerRound * (3 * spu + 1);
    journalSectors_ = cap / 4 / window * window;

    if (start == Start::Aged)
        ageDevice(ctx_.events(), *ssd_, dataSectors_, journalBase_);
    primeEventQueue(ctx_.events());
    prepare(kWarmRounds);
    run();
}

void
CopyPathDrill::prepare(std::uint32_t rounds)
{
    for (std::uint32_t r = 0; r < rounds; ++r)
        prepareRound();
}

void
CopyPathDrill::prepareRound()
{
    const std::uint32_t spu = ssd_->ftl().sectorsPerUnit();
    const std::uint32_t unit_chunks = spu * kChunksPerSector;
    // Records span one to three units, so each gets a source stride
    // of 3 units + 1 sector (room for the chunk shift) and a 4-unit
    // destination slot.
    const Lba stride = 3 * spu + 1;
    const Lba window = kRecordsPerRound * stride;
    const Lba jbase = journalBase_ + (round_ * window) % journalSectors_;

    std::vector<SectorData> journal(window);
    for (Lba i = 0; i < window; ++i)
        journal[i] = token(round_ * window + i + 1);
    cmds_.push_back(
        Command::write(jbase, std::move(journal), IoCause::Journal));

    std::vector<CowPair> pairs;
    for (std::uint32_t k = 0; k < kRecordsPerRound; ++k) {
        const std::uint32_t shift = k % kChunksPerSector;
        const std::uint32_t chunks =
            unit_chunks + (k * 5) % (2 * unit_chunks);
        // Odd records start one sector into their slot: unit-
        // unaligned destinations take the RMW write path.
        const Lba dst =
            ((round_ * kRecordsPerRound + k) * 4 * spu) %
                dataSectors_ +
            k % 2;
        pairs.push_back(CowPair::make(jbase + k * stride, shift, dst,
                                      chunks, round_ + 1,
                                      /*force_copy=*/true));
    }
    cmds_.push_back(Command::checkpointRemap(std::move(pairs)));
    cmds_.push_back(Command::deleteLogs(jbase, window));

    for (std::uint32_t h = 0; h < kHostOpsPerRound; ++h) {
        const std::uint64_t n = round_ * kHostOpsPerRound + h;
        cmds_.push_back(Command::read(
            (n * 7 * spu + h) % (dataSectors_ - 4), 1 + h % 4));
        // One sector at a non-zero offset within its unit.
        const Lba offset = spu > 1 ? 1 + h % (spu - 1) : 0;
        cmds_.push_back(
            Command::write((n * 11 * spu) % dataSectors_ + offset,
                           {token(n)}, IoCause::Query));
    }
    ++round_;
}

std::uint64_t
CopyPathDrill::run()
{
    EventQueue &eq = ctx_.events();
    for (std::size_t i = 0; i < cmds_.size(); ++i) {
        ssd_->submit(std::move(cmds_[i]), [this](const CmdResult &r) {
            r.require();
            ++completed_;
        });
        if ((i + 1) % kCommandsPerRound == 0)
            eq.run();
    }
    const std::uint64_t records =
        cmds_.size() / kCommandsPerRound * kRecordsPerRound;
    cmds_.clear();
    return records;
}

} // namespace checkin
