/**
 * @file
 * Analytic resource primitives for the timing model.
 *
 * The simulator follows the MQSim modelling style: a shared hardware
 * resource (flash die, channel bus, firmware core, DRAM port, PCIe
 * link) is represented by its next-free time(s). A request ready at
 * time t with a known service time s is granted [start, start+s) with
 * start = max(t, next free) on the earliest-available server. That is
 * FIFO in booking order, not in ready-time order: one event books a
 * command's whole chain, so a later event may ask for an earlier ready
 * time and wait behind a booking made for the future, even on an idle
 * resource (ROADMAP.md item 2 measures how often).
 */

#ifndef BEACONGNN_SIM_RESOURCES_H
#define BEACONGNN_SIM_RESOURCES_H

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/stats.h"
#include "sim/types.h"

namespace beacongnn::sim {

/** Result of a resource acquisition: the granted service interval. */
struct Grant
{
    Tick start; ///< When service begins (>= request time).
    Tick end;   ///< When service completes.

    /** Queueing delay experienced before service. */
    Tick waited(Tick requested) const { return start - requested; }
};

/**
 * A pool of k identical FIFO servers (e.g. the SSD's embedded
 * processor cores, or a bank of DMA engines).
 */
class ServerPool
{
  public:
    /**
     * @param servers Number of parallel servers (>= 1).
     * @param name    Stats label.
     */
    explicit ServerPool(unsigned servers = 1, std::string name = "pool")
        : label(std::move(name))
    {
        reset(servers);
    }

    /** Reinitialize with @p servers idle servers at time 0. */
    void
    reset(unsigned servers)
    {
        free = {};
        for (unsigned i = 0; i < std::max(1u, servers); ++i)
            free.push(0);
        _busyTime = 0;
        _requests = 0;
    }

    /** Number of servers in the pool. */
    std::size_t size() const { return free.size(); }

    /**
     * Acquire the earliest-available server at or after @p ready for
     * @p service ticks.
     */
    Grant
    acquire(Tick ready, Tick service)
    {
        Tick avail = free.top();
        free.pop();
        Tick start = std::max(ready, avail);
        Tick end = start + service;
        free.push(end);
        _busyTime += service;
        ++_requests;
        return {start, end};
    }

    /** Aggregate busy time across all servers. */
    Tick busyTime() const { return _busyTime; }

    /** Number of acquisitions served. */
    std::uint64_t requests() const { return _requests; }

    /** Mean utilization over [0, horizon] across all servers. */
    double
    utilization(Tick horizon) const
    {
        if (horizon == 0)
            return 0.0;
        return static_cast<double>(_busyTime) /
               (static_cast<double>(horizon) *
                static_cast<double>(free.size()));
    }

    const std::string &name() const { return label; }

  private:
    std::priority_queue<Tick, std::vector<Tick>, std::greater<>> free;
    std::string label;
    Tick _busyTime = 0;
    std::uint64_t _requests = 0;
};

/**
 * A single serialized resource (bus/link) with optional busy-interval
 * recording for utilization-over-time plots (Fig. 15).
 */
class Bus
{
  public:
    explicit Bus(std::string name = "bus", bool trace_busy = false)
        : label(std::move(name)), tracing(trace_busy)
    {
    }

    /** Acquire the bus at or after @p ready for @p service ticks. */
    Grant
    acquire(Tick ready, Tick service)
    {
        Tick start = std::max(ready, nextFree);
        Tick end = start + service;
        nextFree = end;
        _busyTime += service;
        ++_requests;
        if (tracing && service > 0)
            trace.add(start, end);
        return {start, end};
    }

    /**
     * Keep the resource occupied (but not "busy working") until @p t.
     * Models a flash die whose data register still holds a result that
     * has not yet drained over the channel: the die cannot start a new
     * sense, but it is not performing useful work either, so the time
     * is not added to busyTime() or the utilization trace.
     */
    void holdUntil(Tick t) { nextFree = std::max(nextFree, t); }

    Tick busyTime() const { return _busyTime; }
    std::uint64_t requests() const { return _requests; }

    double
    utilization(Tick horizon) const
    {
        return horizon == 0
                   ? 0.0
                   : static_cast<double>(_busyTime) /
                         static_cast<double>(horizon);
    }

    /** Busy intervals recorded while tracing was enabled. */
    const IntervalTrace &intervals() const { return trace; }

    const std::string &name() const { return label; }

    void
    resetStats()
    {
        nextFree = 0;
        _busyTime = 0;
        _requests = 0;
        trace.clear();
    }

  private:
    std::string label;
    bool tracing;
    Tick nextFree = 0;
    Tick _busyTime = 0;
    std::uint64_t _requests = 0;
    IntervalTrace trace;
};

/**
 * Bandwidth-shared resource: transfers are serialized at a configured
 * byte rate (models the SSD DRAM port and the PCIe link, where what
 * matters is aggregate bytes/second rather than per-transaction
 * occupancy of a specific server).
 */
class BandwidthResource
{
  public:
    /**
     * @param mbytes_per_s Sustained bandwidth in 10^6 bytes/s.
     * @param name         Stats label.
     */
    explicit BandwidthResource(double mbytes_per_s = 1000.0,
                               std::string name = "bw")
        : rate(mbytes_per_s), label(std::move(name))
    {
    }

    /** Transfer @p bytes beginning no earlier than @p ready. */
    Grant
    acquire(Tick ready, std::uint64_t bytes)
    {
        Tick service = transferTime(bytes, rate);
        Tick start = std::max(ready, nextFree);
        Tick end = start + service;
        nextFree = end;
        _busyTime += service;
        _bytes += bytes;
        return {start, end};
    }

    Tick busyTime() const { return _busyTime; }
    std::uint64_t bytesMoved() const { return _bytes; }

    double
    utilization(Tick horizon) const
    {
        return horizon == 0
                   ? 0.0
                   : static_cast<double>(_busyTime) /
                         static_cast<double>(horizon);
    }

    const std::string &name() const { return label; }

    void
    resetStats()
    {
        nextFree = 0;
        _busyTime = 0;
        _bytes = 0;
    }

  private:
    double rate;
    std::string label;
    Tick nextFree = 0;
    Tick _busyTime = 0;
    std::uint64_t _bytes = 0;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_RESOURCES_H
