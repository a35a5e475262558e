/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a time-ordered priority queue of closures. Components
 * schedule work with schedule(delay, fn); the main loop pops events in
 * (time, insertion-order) order so simultaneous events execute in a
 * deterministic FIFO order — a requirement for reproducible runs.
 *
 * The hot path is allocation-free: callbacks are stored in a
 * small-buffer-optimized InlineCallback (no heap for typical
 * captures), the heap is a plain std::vector manipulated with
 * std::push_heap/std::pop_heap, and runUntil() moves each event out
 * of the queue instead of copying it (closures are executed exactly
 * once, so copyability is never needed).
 */

#ifndef BEACONGNN_SIM_EVENT_QUEUE_H
#define BEACONGNN_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/types.h"
#include "sim/validator.h"

namespace beacongnn::sim {

/**
 * Deterministic discrete-event queue.
 *
 * Events at equal timestamps fire in insertion order (stable), which
 * keeps multi-component interactions reproducible across runs and
 * platforms.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * @return The absolute tick at which the event will fire.
     */
    Tick
    schedule(Tick delay, Callback fn)
    {
        return scheduleAt(_now + delay, std::move(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when. Scheduling in the past
     * is clamped to "now" (the event still runs, immediately), which
     * lets analytic resource models hand back conservative grant times
     * without extra branching at every call site.
     */
    Tick
    scheduleAt(Tick when, Callback fn)
    {
        if constexpr (kCheckedBuild) {
            // Before the clamp: a past-scheduled event is exactly
            // what the checked build exists to catch.
            if (_validator)
                _validator->onSchedule(_station, when, _now);
        }
        if (when < _now)
            when = _now;
        events.push_back(Event{when, seq++, std::move(fn)});
        std::push_heap(events.begin(), events.end(), Later{});
        return when;
    }

    /** Number of pending events. */
    std::size_t pending() const { return events.size(); }

    /** Timestamp of the earliest pending event (kTickMax if none).
     *  This is what a conservative parallel driver needs to compute
     *  the global window floor without popping anything. */
    Tick
    nextTime() const
    {
        return events.empty() ? kTickMax : events.front().when;
    }

    /** Pre-size the event heap to avoid growth reallocations. */
    void reserve(std::size_t n) { events.reserve(n); }

    /** One pre-timed event of a bulkScheduleAt() batch. */
    struct TimedEvent
    {
        Tick when;
        Callback fn;
    };

    /**
     * Schedule a whole batch at once (the parallel driver's deliver
     * hook), leaving @p batch empty with its capacity, for the caller
     * to refill. A batch that rivals the heap size re-heapifies once
     * (O(n + k)) instead of paying k sift-ups; the heap grows
     * geometrically, so a caller that delivers several batches per
     * round does not reallocate per batch. Execution order is
     * unaffected by the internal path: the pop order is the total
     * order (when, insertion-seq), and the batch receives its
     * sequence numbers in element order exactly as k individual
     * scheduleAt() calls would.
     */
    void
    bulkScheduleAt(std::vector<TimedEvent> &batch)
    {
        if (batch.size() >= 8 && batch.size() >= events.size() / 2) {
            for (TimedEvent &e : batch) {
                if constexpr (kCheckedBuild) {
                    if (_validator)
                        _validator->onSchedule(_station, e.when, _now);
                }
                events.push_back(Event{std::max(e.when, _now), seq++,
                                       std::move(e.fn)});
            }
            std::make_heap(events.begin(), events.end(), Later{});
        } else {
            for (TimedEvent &e : batch)
                scheduleAt(e.when, std::move(e.fn));
        }
        batch.clear();
    }

    /** Allocated heap capacity (events). */
    std::size_t capacity() const { return events.capacity(); }

    /**
     * Attach the checked-build validator, registering this queue as
     * @p station's local clock. A nullptr detaches. The setter is
     * always available; the hooks it feeds are compiled out entirely
     * unless BGN_CHECKED is defined (kCheckedBuild).
     */
    void
    setValidator(Validator *v, unsigned station)
    {
        _validator = v;
        _station = station;
    }

    /**
     * Run until the queue drains.
     * @return Final simulated time.
     */
    Tick
    run()
    {
        return runUntil(kTickMax);
    }

    /**
     * Run events with timestamp <= @p limit.
     * @return Simulated time after the last executed event (or @p limit
     *         if the queue drained earlier than the limit).
     */
    Tick
    runUntil(Tick limit)
    {
        while (!events.empty() && events.front().when <= limit) {
            // Move the top event out before executing: the callback
            // may schedule new events (invalidating references into
            // the heap), and moving avoids copying the closure.
            std::pop_heap(events.begin(), events.end(), Later{});
            Event ev = std::move(events.back());
            events.pop_back();
            _now = ev.when;
            if constexpr (kCheckedBuild) {
                if (_validator)
                    _validator->onPop(_station, ev.when);
            }
            ev.fn();
        }
        return _now;
    }

    /**
     * Drop all pending events and release the heap's memory (used
     * between benchmark repetitions so one oversized run does not pin
     * its peak allocation forever).
     */
    void
    clear()
    {
        std::vector<Event>().swap(events);
        _now = 0;
        seq = 0;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t order;
        Callback fn;
    };

    /** Max-heap comparator: the *earliest* event wins the top slot. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    std::vector<Event> events;
    Tick _now = 0;
    std::uint64_t seq = 0;
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    Validator *_validator = nullptr;
    unsigned _station = 0;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_EVENT_QUEUE_H
