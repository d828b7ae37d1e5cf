/**
 * @file
 * Flash block allocation, state tracking, and GC victim selection.
 *
 * Free blocks are pooled per die and every write stream keeps one
 * active block per die, so the FTL can stripe sequential writes
 * across the whole array (superblock-style) instead of serializing
 * on a single die.
 */

#ifndef CHECKIN_FTL_BLOCK_MANAGER_H_
#define CHECKIN_FTL_BLOCK_MANAGER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ftl/ftl_types.h"
#include "nand/nand_types.h"
#include "sim/types.h"

namespace checkin {

/**
 * Tracks every erase block's lifecycle (FREE -> ACTIVE -> CLOSED ->
 * FREE, or any state -> BAD on retirement) and per-block valid-slot
 * counts; implements wear-aware allocation (lowest erase count
 * first, per die) and greedy GC victim selection (fewest valid
 * slots).
 *
 * Purely functional bookkeeping: no NAND access, no timing.
 */
class BlockManager
{
  public:
    enum class State : std::uint8_t { Free, Active, Closed, Bad };

    /**
     * @param total_blocks blocks in the device.
     * @param slots_per_block sub-page slots each block holds.
     * @param die_count dies; blocks are assumed contiguous per die.
     */
    BlockManager(std::uint64_t total_blocks,
                 std::uint32_t slots_per_block,
                 std::uint32_t die_count);

    /**
     * Take the least-worn free block of @p die and make it the
     * active block of (@p stream, @p die). Any previous active block
     * there must have been closed.
     * @return the allocated block, or kInvalidAddr if the die has no
     *         free block.
     */
    Pbn allocate(Stream stream, std::uint32_t die);

    /** Active block of (@p stream, @p die); kInvalidAddr if none. */
    Pbn activeBlock(Stream stream, std::uint32_t die) const;

    /** Move the active block of (@p stream, @p die) to CLOSED. */
    void closeActive(Stream stream, std::uint32_t die);

    /** Record @p count newly valid slots in @p pbn. */
    void addValid(Pbn pbn, std::uint32_t count = 1);

    /** Record one slot of @p pbn turning invalid. */
    void invalidate(Pbn pbn);

    /** Return an erased block to its die's free pool. */
    void release(Pbn pbn, std::uint32_t erase_count);

    /**
     * Retire @p pbn after a program or erase failure: the block
     * leaves circulation permanently (never allocated, never a GC
     * victim). Works from any state — a Free block is pulled from
     * its pool, an Active block is detached from its stream slot, a
     * Closed block simply flips. Valid-slot counts are kept: the
     * caller migrates the survivors and invalidates them as it goes.
     */
    void retire(Pbn pbn, std::uint32_t erase_count);

    /** Number of retired (bad) blocks device-wide. */
    std::uint32_t badBlocks() const { return totalBad_; }

    /** Number of free blocks device-wide. */
    std::uint32_t freeBlocks() const { return totalFree_; }

    /** Number of free blocks on @p die. */
    std::uint32_t
    freeBlocksOnDie(std::uint32_t die) const
    {
        return std::uint32_t(pools_[die].size());
    }

    std::uint32_t dieCount() const
    {
        return std::uint32_t(pools_.size());
    }

    /**
     * Closed block with the fewest valid slots (greedy policy);
     * kInvalidAddr when no closed block exists.
     */
    Pbn pickGcVictim() const;

    /**
     * Power-loss rebuild: forget all state and reinitialize from the
     * surviving flash facts — per-block erase counts, whether the
     * block holds programmed pages (-> CLOSED) or is erased
     * (-> FREE), and the firmware's persistent defect list
     * (@p bad -> BAD, overriding both). Valid counts restart at
     * zero; the caller re-adds them while replaying OOB.
     */
    void resetForRebuild(const std::vector<std::uint32_t> &erase_counts,
                         const std::vector<bool> &closed,
                         const std::vector<bool> &bad);

    State state(Pbn pbn) const { return state_[pbn]; }
    std::uint32_t validCount(Pbn pbn) const { return valid_[pbn]; }

    /** Total valid slots across all blocks. */
    std::uint64_t totalValid() const { return totalValid_; }

  private:
    std::uint32_t dieOf(Pbn pbn) const
    {
        return std::uint32_t(pbn / blocksPerDie_);
    }

    /** Pool entry: wear first, block number breaks ties. */
    using PoolEntry = std::pair<std::uint32_t, Pbn>;

    /** Insert @p e into its die's pool, keeping the pool order. */
    void poolInsert(PoolEntry e);

    std::uint32_t slotsPerBlock_;
    std::uint64_t blocksPerDie_;
    std::vector<State> state_;
    std::vector<std::uint32_t> valid_;
    // Per-die free pools of (eraseCount, pbn), sorted descending so the
    // least-worn block is at the back (wear-aware allocation pops it).
    // Capacity is reserved for a whole die, so a pool never allocates.
    std::vector<std::vector<PoolEntry>> pools_;
    // active_[stream * dieCount + die]
    std::vector<Pbn> active_;
    std::uint64_t totalValid_ = 0;
    std::uint32_t totalFree_ = 0;
    std::uint32_t totalBad_ = 0;
};

} // namespace checkin

#endif // CHECKIN_FTL_BLOCK_MANAGER_H_
