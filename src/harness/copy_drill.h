/**
 * @file
 * Steady-state drill of the device data path, for allocation gates.
 *
 * An Ssd on presets::small() geometry is either aged until every free
 * block has been erased at least once, so GC runs during the drill,
 * or left factory-fresh, so the drill's page programs land on pages
 * that were never programmed. Each drill round then submits, through
 * the normal event-queue path:
 *  - one journal write holding the round's records;
 *  - one CheckpointRemap batch of forced-copy records (multi-unit,
 *    chunk-shifted: Algorithm 1's copy fallback, the path LSM
 *    compaction merges take);
 *  - a DeleteLogs of the round's journal window;
 *  - host reads of the data area;
 *  - single-sector host writes, which are sub-unit (read-modify-
 *    write) at the default 2 KiB mapping unit.
 *
 * Commands are built by prepare(), so a heap-allocation count taken
 * around run() sees only what the device stack itself allocates.
 * tests/test_device_allocs.cc asserts that count is zero, and
 * bench_kernel gates on it in CI.
 */

#ifndef CHECKIN_HARNESS_COPY_DRILL_H_
#define CHECKIN_HARNESS_COPY_DRILL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/sim_context.h"
#include "ssd/command.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * Age @p ssd: overwrite every LBA outside [@p skip_begin,
 * @p skip_end) in passes until no free or active block is still
 * factory-fresh. On an aged device the drill's writes keep GC (victim
 * reads, slot migration, erases) on the measured path.
 * @throws std::runtime_error if aging does not converge.
 */
void ageDevice(EventQueue &eq, Ssd &ssd, Lba skip_begin,
               Lba skip_end);

/**
 * Grow every calendar bucket of idle queue @p eq past the load of an
 * allocation-gate window (runs the queue to idle). The buckets grow
 * on first use and keep their capacity, so a kernel reaches its
 * high-water capacity only over thousands of rounds; after priming,
 * an allocation count measures the simulated stack alone.
 */
void primeEventQueue(EventQueue &eq);

class CopyPathDrill
{
  public:
    /** Forced-copy records per round's CheckpointRemap batch. */
    static constexpr std::uint32_t kRecordsPerRound = 8;
    /** Host reads, and single-sector host writes, per round. */
    static constexpr std::uint32_t kHostOpsPerRound = 8;
    /** Commands per round: journal write, checkpoint, DeleteLogs and
     *  the host reads and writes. */
    static constexpr std::uint32_t kCommandsPerRound =
        3 + 2 * kHostOpsPerRound;

    /** Device state the drill starts from. */
    enum class Start
    {
        Aged,         //!< ageDevice() first: GC runs in the drill
        FactoryFresh, //!< no block ever erased
    };

    /**
     * Build (and, for Start::Aged, age) the device, then run
     * kWarmRounds rounds so every reusable buffer reaches its
     * steady-state size.
     * @throws std::runtime_error if aging does not converge.
     */
    explicit CopyPathDrill(std::uint32_t mapping_unit_bytes = 2048,
                           Start start = Start::Aged);

    /** Build the commands of the next @p rounds rounds (allocates). */
    void prepare(std::uint32_t rounds);

    /**
     * Submit the prepared rounds one at a time, running the event
     * queue to idle after each. @return forced-copy records
     * checkpointed.
     */
    std::uint64_t run();

    /** Commands completed so far (every one must succeed). */
    std::uint64_t completed() const { return completed_; }

    Ssd &ssd() { return *ssd_; }

  private:
    /** Rounds run by the constructor before any measured run(). */
    static constexpr std::uint32_t kWarmRounds = 64;

    /** Append one round's commands to the prepared list. */
    void prepareRound();

    SimContext ctx_;
    std::unique_ptr<Ssd> ssd_;
    Lba journalBase_ = 0;
    Lba journalSectors_ = 0;
    Lba dataSectors_ = 0;
    std::uint64_t round_ = 0;

    /** Prepared commands, kCommandsPerRound per round. */
    std::vector<Command> cmds_;
    std::uint64_t completed_ = 0;
};

} // namespace checkin

#endif // CHECKIN_HARNESS_COPY_DRILL_H_
