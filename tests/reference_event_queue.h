/**
 * @file
 * The pre-calendar DES kernel (std::priority_queue + std::function),
 * kept verbatim as a reference: tests/test_event_queue_golden.cc
 * holds the calendar queue's dispatch order bit-for-bit equal to it,
 * and bench_kernel times it as the legacy-heap row.
 */

#ifndef CHECKIN_TESTS_REFERENCE_EVENT_QUEUE_H_
#define CHECKIN_TESTS_REFERENCE_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.h"

namespace checkin {

/** The pre-calendar binary-heap kernel. */
class ReferenceEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void
    schedule(Tick when, Callback cb)
    {
        if (when < now_)
            when = now_;
        events_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    bool empty() const { return events_.empty(); }

    Tick
    nextEventTick() const
    {
        return events_.empty() ? kInvalidTick : events_.top().when;
    }

    bool
    step()
    {
        if (events_.empty())
            return false;
        Event ev = std::move(const_cast<Event &>(events_.top()));
        events_.pop();
        now_ = ev.when;
        ev.cb();
        return true;
    }

    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (step())
            ++n;
        return n;
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!events_.empty() && events_.top().when <= limit) {
            step();
            ++n;
        }
        if (now_ < limit && events_.empty())
            now_ = limit;
        return n;
    }

    void
    clear()
    {
        std::priority_queue<Event, std::vector<Event>, Later> empty;
        events_.swap(empty);
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace checkin

#endif // CHECKIN_TESTS_REFERENCE_EVENT_QUEUE_H_
