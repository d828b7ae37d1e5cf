#include "ftl/block_manager.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace checkin {

BlockManager::BlockManager(std::uint64_t total_blocks,
                           std::uint32_t slots_per_block,
                           std::uint32_t die_count)
    : slotsPerBlock_(slots_per_block),
      blocksPerDie_(total_blocks / die_count),
      state_(total_blocks, State::Free),
      valid_(total_blocks, 0),
      pools_(die_count),
      active_(std::size_t(kStreamCount) * die_count, kInvalidAddr)
{
    assert(total_blocks % die_count == 0);
    for (auto &pool : pools_)
        pool.reserve(blocksPerDie_);
    for (Pbn b = total_blocks; b-- > 0;)
        pools_[dieOf(b)].push_back({0, b});
    totalFree_ = std::uint32_t(total_blocks);
}

void
BlockManager::poolInsert(PoolEntry e)
{
    auto &pool = pools_[dieOf(e.second)];
    pool.insert(std::lower_bound(pool.begin(), pool.end(), e,
                                 std::greater<PoolEntry>()),
                e);
}

Pbn
BlockManager::allocate(Stream stream, std::uint32_t die)
{
    auto &slot = active_[std::size_t(std::uint32_t(stream)) *
                             pools_.size() +
                         die];
    assert(slot == kInvalidAddr && "close the active block first");
    auto &pool = pools_[die];
    if (pool.empty())
        return kInvalidAddr;
    const Pbn pbn = pool.back().second;
    pool.pop_back();
    --totalFree_;
    state_[pbn] = State::Active;
    slot = pbn;
    return pbn;
}

Pbn
BlockManager::activeBlock(Stream stream, std::uint32_t die) const
{
    return active_[std::size_t(std::uint32_t(stream)) *
                       pools_.size() +
                   die];
}

void
BlockManager::closeActive(Stream stream, std::uint32_t die)
{
    auto &slot = active_[std::size_t(std::uint32_t(stream)) *
                             pools_.size() +
                         die];
    assert(slot != kInvalidAddr);
    state_[slot] = State::Closed;
    slot = kInvalidAddr;
}

void
BlockManager::addValid(Pbn pbn, std::uint32_t count)
{
    valid_[pbn] += count;
    totalValid_ += count;
    assert(valid_[pbn] <= slotsPerBlock_);
}

void
BlockManager::invalidate(Pbn pbn)
{
    assert(valid_[pbn] > 0);
    --valid_[pbn];
    --totalValid_;
}

void
BlockManager::release(Pbn pbn, std::uint32_t erase_count)
{
    assert(state_[pbn] == State::Closed);
    assert(valid_[pbn] == 0);
    state_[pbn] = State::Free;
    poolInsert({erase_count, pbn});
    ++totalFree_;
}

void
BlockManager::retire(Pbn pbn, std::uint32_t erase_count)
{
    switch (state_[pbn]) {
    case State::Bad:
        return;
    case State::Free: {
        auto &pool = pools_[dieOf(pbn)];
        const PoolEntry e{erase_count, pbn};
        const auto it = std::lower_bound(pool.begin(), pool.end(), e,
                                         std::greater<PoolEntry>());
        assert(it != pool.end() && *it == e &&
               "free block missing from its pool");
        pool.erase(it);
        --totalFree_;
        break;
    }
    case State::Active:
        for (auto &slot : active_) {
            if (slot == pbn)
                slot = kInvalidAddr;
        }
        break;
    case State::Closed:
        break;
    }
    state_[pbn] = State::Bad;
    ++totalBad_;
}

void
BlockManager::resetForRebuild(
    const std::vector<std::uint32_t> &erase_counts,
    const std::vector<bool> &closed,
    const std::vector<bool> &bad)
{
    assert(erase_counts.size() == state_.size());
    assert(closed.size() == state_.size());
    assert(bad.size() == state_.size());
    for (auto &pool : pools_)
        pool.clear();
    std::fill(active_.begin(), active_.end(), kInvalidAddr);
    std::fill(valid_.begin(), valid_.end(), 0);
    totalValid_ = 0;
    totalFree_ = 0;
    totalBad_ = 0;
    for (Pbn b = 0; b < state_.size(); ++b) {
        if (bad[b]) {
            state_[b] = State::Bad;
            ++totalBad_;
        } else if (closed[b]) {
            state_[b] = State::Closed;
        } else {
            state_[b] = State::Free;
            poolInsert({erase_counts[b], b});
            ++totalFree_;
        }
    }
}

Pbn
BlockManager::pickGcVictim() const
{
    Pbn best = kInvalidAddr;
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    for (Pbn b = 0; b < state_.size(); ++b) {
        if (state_[b] != State::Closed)
            continue;
        if (valid_[b] < best_valid) {
            best_valid = valid_[b];
            best = b;
        }
    }
    return best;
}

} // namespace checkin
