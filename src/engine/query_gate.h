/**
 * @file
 * Query admission shared by the storage-engine backends: the host CPU
 * delay before a query runs, and the checkpoint lock that holds
 * queries back while a checkpoint (or memtable flush) is running.
 */

#ifndef CHECKIN_ENGINE_QUERY_GATE_H_
#define CHECKIN_ENGINE_QUERY_GATE_H_

#include <cstddef>
#include <deque>
#include <utility>

#include "obs/attribution.h"
#include "sim/event_queue.h"

namespace checkin {

/**
 * Admits query tasks into the event queue. An admitted task runs
 * after the per-query host CPU time; while the engine holds its
 * checkpoint lock, tasks wait here in arrival order until release().
 *
 * A task is moved straight into its event: nothing is wrapped or
 * copied unless the lock actually holds it.
 */
class QueryGate
{
  public:
    QueryGate(EventQueue &eq, Tick host_cpu)
        : eq_(eq), hostCpu_(host_cpu)
    {
    }

    /**
     * Schedule @p task (an op's query, attributed to @p op) after
     * the host CPU time, or hold it when @p locked.
     */
    template <typename Task>
    void
    admit(bool locked, obs::OpToken op, Task &&task)
    {
        if (locked) {
            held_.emplace_back(std::forward<Task>(task));
            return;
        }
        obs::attrMark(op, obs::Stage::HostCpu, eq_.now() + hostCpu_);
        eq_.scheduleAfter(hostCpu_, std::forward<Task>(task));
    }

    /** The lock was dropped: run every held task now, in order. */
    void
    release()
    {
        while (!held_.empty()) {
            eq_.scheduleAfter(0, std::move(held_.front()));
            held_.pop_front();
        }
    }

    /** Tasks currently held behind the lock. */
    std::size_t held() const { return held_.size(); }

  private:
    EventQueue &eq_;
    Tick hostCpu_;
    std::deque<EventQueue::Callback> held_;
};

} // namespace checkin

#endif // CHECKIN_ENGINE_QUERY_GATE_H_
