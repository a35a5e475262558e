#include "sim/parallel_sim.h"

#include <algorithm>
#include <thread>

#include "sim/executor.h"
#include "sim/log.h"

namespace beacongnn::sim {

void
SpinBarrier::yieldNow()
{
    std::this_thread::yield();
}

ParallelSimulator::ParallelSimulator(std::vector<EventQueue *> stations,
                                     Tick lookahead, Deliver deliver,
                                     unsigned jobs)
    : _stations(std::move(stations)), _lookahead(lookahead),
      _deliver(std::move(deliver)), _jobsParam(jobs)
{
    for (const EventQueue *q : _stations)
        if (!q)
            fatal("ParallelSimulator: station without a queue");
}

Tick
ParallelSimulator::deliverAndFloor()
{
    // The hook runs alone, between windows: what it schedules, and in
    // which order, cannot depend on the worker count.
    if (_deliver)
        _deliver();
    Tick floor = kTickMax;
    for (const EventQueue *q : _stations)
        floor = std::min(floor, q->nextTime());
    return floor;
}

Tick
ParallelSimulator::windowLimit(Tick floor) const
{
    // Inclusive runUntil() limit: [floor, floor + lookahead). With a
    // zero lookahead the window collapses to the single timestamp
    // `floor` — serialized but deadlock-free (work posted at `floor`
    // is delivered next round).
    if (_lookahead == 0)
        return floor;
    if (_lookahead - 1 > kTickMax - floor)
        return kTickMax;
    return floor + (_lookahead - 1);
}

Tick
ParallelSimulator::run()
{
    if (_stations.empty())
        return 0;
    const unsigned jobs =
        _jobsParam ? _jobsParam : SimExecutor::defaultJobs();
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, jobs), _stations.size()));
    _lastJobs = workers;

    // One window loop for every worker count: the calling thread runs
    // station 0 (and every workers-th one after it) and `workers - 1`
    // threads run the rest, so jobs = 1 spawns none and its one-party
    // barriers return at once. Two barriers per window. `limit` and
    // `stop` are plain values: the main thread writes them strictly
    // before its `ready` arrival, and the barrier's acquire/release
    // generation hand-off orders them before any worker's read (and
    // the workers' station mutations before the main thread's next
    // deliver).
    SpinBarrier ready(workers), done(workers);
    Tick limit = 0;
    bool stop = false;

    auto runStations = [&](unsigned w) {
        for (std::size_t s = w; s < _stations.size(); s += workers) {
            if constexpr (kCheckedBuild) {
                if (_validator)
                    _validator->claimStation(
                        static_cast<unsigned>(s));
            }
            _stations[s]->runUntil(limit);
            if constexpr (kCheckedBuild) {
                if (_validator)
                    _validator->releaseStation(
                        static_cast<unsigned>(s));
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
        pool.emplace_back([&, w] {
            for (;;) {
                ready.arriveAndWait();
                if (stop)
                    return;
                runStations(w);
                done.arriveAndWait();
            }
        });
    }

    for (;;) {
        Tick floor = deliverAndFloor();
        if (floor == kTickMax) {
            stop = true;
            ready.arriveAndWait();
            break;
        }
        limit = windowLimit(floor);
        ++_windows;
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->windowOpen(floor, limit);
        }
        ready.arriveAndWait();
        runStations(0);
        done.arriveAndWait();
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->windowClose();
        }
    }
    for (std::thread &t : pool)
        t.join();

    Tick end = 0;
    for (const EventQueue *q : _stations)
        end = std::max(end, q->now());
    return end;
}

} // namespace beacongnn::sim
