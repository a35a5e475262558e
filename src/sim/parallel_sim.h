/**
 * @file
 * Conservative parallel discrete-event simulation across stations
 * (DESIGN.md §13).
 *
 * Each station is a private EventQueue (a device's local clock), and
 * one deliver hook moves the cross-station work posted during a
 * window onto its destination queues. The driver runs a
 * synchronous-window (YAWNS-style Chandy–Misra) algorithm: per round
 * it calls the deliver hook, computes the global floor T = min over
 * stations of the earliest pending event, and lets every station
 * advance concurrently through the window [T, T + lookahead). The
 * lookahead is the fabric's minimum cross-station latency (one P2P
 * hop): any work posted inside the window is stamped at or beyond the
 * horizon, so no station can receive work it should already have
 * executed.
 *
 * Determinism contract: the executed event sequence of every station
 * is a pure function of (initial queues, deliver hook, lookahead) —
 * the worker count never changes which window an event lands in or
 * the order inside a window, because windows are global barriers and
 * the deliver hook runs alone between them and must schedule in an
 * order that does not depend on which thread posted first. jobs = 1
 * therefore produces byte-identical results to any other worker
 * count, just on one thread.
 *
 * Zero lookahead does not deadlock: the window degenerates to a
 * single timestamp ([T, T]) and the simulation proceeds as globally
 * serialized tick-stepped rounds — still deterministic for every
 * worker count, merely without look-ahead parallelism. At the other
 * end, an unbounded lookahead (sim::kTickMax: one station, no fabric)
 * makes the first window [T, kTickMax], which runs the whole queue
 * exactly as EventQueue::run() does.
 */

#ifndef BEACONGNN_SIM_PARALLEL_SIM_H
#define BEACONGNN_SIM_PARALLEL_SIM_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace beacongnn::sim {

/**
 * Reusable spinning barrier for the window loop. std::barrier (or
 * spawning threads per window) costs a futex round-trip per window;
 * windows are microseconds of work, so the workers spin briefly and
 * then yield — oversubscribed hosts degrade gracefully instead of
 * burning a core per waiter.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned parties) : n(parties) {}

    void
    arriveAndWait()
    {
        std::uint64_t my = gen.load(std::memory_order_acquire);
        if (count.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
            count.store(0, std::memory_order_relaxed);
            gen.fetch_add(1, std::memory_order_release);
            return;
        }
        unsigned spins = 0;
        while (gen.load(std::memory_order_acquire) == my) {
            if (++spins > kSpinLimit)
                yieldNow();
        }
    }

  private:
    static constexpr unsigned kSpinLimit = 4096;
    static void yieldNow();

    unsigned n;
    std::atomic<unsigned> count{0};
    std::atomic<std::uint64_t> gen{0};
};

/** Conservative windowed driver over a set of station queues. */
class ParallelSimulator
{
  public:
    /** Moves the work stations posted for each other during a window
     *  onto the destination queues. Called once per round, between
     *  windows, when no station is running. */
    using Deliver = std::function<void()>;

    /**
     * @param stations  The per-station queues (borrowed).
     * @param lookahead Minimum cross-station latency (ticks). Zero is
     *                  legal and falls back to serialized windows;
     *                  kTickMax runs everything in one window.
     * @param deliver   The cross-station deliver hook (may be empty
     *                  when the stations never post to each other).
     * @param jobs      Worker count; 0 resolves SimExecutor's default
     *                  (--jobs / BGN_JOBS / cores) at each run() and
     *                  is clamped to the station count.
     */
    ParallelSimulator(std::vector<EventQueue *> stations, Tick lookahead,
                      Deliver deliver, unsigned jobs = 0);

    /**
     * Run until global quiescence: the deliver hook has run and every
     * queue is empty. @return max station clock reached.
     */
    Tick run();

    /** Synchronization windows executed across all run() calls. */
    std::uint64_t windows() const { return _windows; }

    /** Worker count the last run() resolved to (0 before any run). */
    unsigned lastJobs() const { return _lastJobs; }

    /**
     * Attach the checked-build validator (DESIGN.md §16): the driver
     * reports window open/close and workers claim their stations
     * around each runUntil. Station queues register themselves via
     * EventQueue::setValidator. Nullptr detaches; an OFF build
     * compiles every report out.
     */
    void setValidator(Validator *v) { _validator = v; }

  private:
    /** Run the deliver hook; then the global floor. */
    Tick deliverAndFloor();
    Tick windowLimit(Tick floor) const;

    std::vector<EventQueue *> _stations;
    Tick _lookahead;
    Deliver _deliver;
    unsigned _jobsParam;
    unsigned _lastJobs = 0;
    std::uint64_t _windows = 0;
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    Validator *_validator = nullptr;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_PARALLEL_SIM_H
