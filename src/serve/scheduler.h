/**
 * @file
 * Micro-batching scheduler.
 *
 * Classic serving trade-off: dispatch a mini-batch as soon as
 * `maxBatch` requests are queued (throughput), or when the oldest
 * queued request has waited `timeout` ticks (latency), whichever
 * comes first. The scheduler is a pure, deterministic decision
 * procedure over a sorted arrival stream — it knows nothing about the
 * platform beyond "the prep stream frees at tick T", which makes the
 * dispatch logic unit-testable without running a simulation.
 */

#ifndef BEACONGNN_SERVE_SCHEDULER_H
#define BEACONGNN_SERVE_SCHEDULER_H

#include <vector>

#include "serve/queue.h"

namespace beacongnn::serve {

/** Micro-batching policy knobs. */
struct BatchPolicy
{
    std::uint32_t maxBatch = 32;             ///< Dispatch-now threshold.
    sim::Tick timeout = sim::microseconds(200); ///< Max age before dispatch.
};

/** One dispatch decision: when, and which requests. */
struct Dispatch
{
    sim::Tick at = 0;            ///< Batch handed to the platform.
    std::vector<Request> batch;  ///< Priority-ordered members.
};

/**
 * Drains a fixed (sorted) arrival stream into micro-batches. The
 * caller advances simulated time by asking for the next dispatch
 * given the earliest tick the platform can accept work.
 */
class MicroBatcher
{
  public:
    /**
     * @param policy   Batching policy.
     * @param arrivals Requests sorted by nondecreasing arrival time
     *                 (generateArrivals output order).
     */
    MicroBatcher(const BatchPolicy &policy,
                 std::vector<Request> arrivals);

    /**
     * Decide the next dispatch, given that the platform frees at
     * @p server_free. Returns false when the stream is exhausted.
     *
     * The dispatch fires at the earliest of:
     *  - the tick the `maxBatch`-th request becomes available
     *    (arrivals already queued count from `server_free`), or
     *  - `oldest queued arrival + timeout`,
     * never earlier than `server_free`.
     */
    bool next(sim::Tick server_free, Dispatch &out);

    /** Deepest queued backlog seen so far. */
    std::size_t peakDepth() const { return queue.peakDepth(); }

  private:
    /** Admit every arrival with arrival <= t. */
    void admitUpTo(sim::Tick t);

    BatchPolicy policy;
    std::vector<Request> pending; ///< Sorted future arrivals.
    std::size_t cursor = 0;       ///< First not-yet-admitted arrival.
    AdmissionQueue queue;
};

} // namespace beacongnn::serve

#endif // BEACONGNN_SERVE_SCHEDULER_H
