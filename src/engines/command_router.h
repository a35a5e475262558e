/**
 * @file
 * Channel-level command router (§V-B, Fig. 12).
 *
 * The customized flash interface controller logic of BeaconGNN-2.0:
 * per-channel, per-die dispatch queues fed through a crossbar, a
 * round-robin command issuer per channel, and a data-stream parser
 * that classifies completed sampling results into new commands
 * (forwarded to the crossbar) and feature payloads (DMAed to DRAM
 * without per-transfer firmware configuration).
 *
 * Timing semantics:
 *  - routing a command costs one crossbar hop plus a (possibly zero)
 *    wait in the destination die's dispatch queue — the queue drains
 *    at the die's service rate, which the flash backend's die
 *    occupancy already models, so the dispatch queue here bounds the
 *    number of commands the hardware can hold per die and tracks
 *    occupancy statistics;
 *  - parsing a result frame costs routerParse.
 *
 * The router also keeps the §VI-E discipline: commands whose section
 * checks fail on-die are returned to the firmware rather than
 * re-routed.
 */

#ifndef BEACONGNN_ENGINES_COMMAND_ROUTER_H
#define BEACONGNN_ENGINES_COMMAND_ROUTER_H

#include <vector>

#include "flash/address.h"
#include "flash/onfi.h"
#include "sim/resources.h"
#include "ssd/config.h"

namespace beacongnn::engines {

/** Per-die dispatch-queue occupancy statistics. */
struct DispatchStats
{
    std::uint64_t routed = 0;       ///< Commands forwarded.
    std::uint64_t parsed = 0;       ///< Result frames classified.
    std::uint64_t crossChannel = 0; ///< Commands that changed channel.
    std::uint64_t peakQueue = 0;    ///< Max per-die queue occupancy.
};

/** Hardware command path of BeaconGNN-2.0. */
class CommandRouter
{
  public:
    /**
     * @param ecfg     Engine latencies (crossbar hop, parse cost).
     * @param flash    Geometry (queue per die).
     * @param depth    Dispatch-queue slots per die.
     */
    CommandRouter(const ssd::EngineConfig &ecfg_,
                  const flash::FlashConfig &flash, unsigned depth = 64)
        : ecfg(ecfg_), codec(flash), queueDepth(std::max(1u, depth))
    {
        queues.resize(flash.totalDies());
        for (DieQueue &q : queues)
            q.slots.resize(queueDepth);
    }

    /**
     * Route a command that became available on channel @p from_channel
     * at @p ready toward the die owning @p ppa.
     *
     * @return Time at which the command sits in the destination die's
     *         dispatch queue, eligible for the round-robin issuer.
     */
    sim::Tick
    route(sim::Tick ready, unsigned from_channel, flash::Ppa ppa)
    {
        unsigned die = codec.globalDieOf(ppa);
        unsigned to_channel = codec.channelOf(ppa);
        ++stats_.routed;
        if (from_channel != to_channel)
            ++stats_.crossChannel;
        // Crossbar hop to the destination channel's in-port.
        sim::Tick arrived = ready + ecfg.crossbarHop;
        // Dispatch-queue slot: with bounded hardware queues a full
        // queue back-pressures the producer until the issuer drains
        // an entry (entries drain when the die completes commands —
        // the caller reports that via release()).
        DieQueue &q = queues[die];
        q.trim(arrived);
        if (q.count >= queueDepth) {
            // Waiting for the oldest slot pops it (a never-bound
            // placeholder, kTickMax, pops them all), so the queue
            // holds at most queueDepth entries after the push.
            arrived = std::max(arrived, q.at(0));
            q.trim(arrived);
        }
        q.at(q.count++) = sim::kTickMax; // Placeholder until bound.
        stats_.peakQueue =
            std::max<std::uint64_t>(stats_.peakQueue, q.count);
        return arrived;
    }

    /**
     * Bind the most recent routed command on @p ppa's die to its
     * completion time, so the queue slot frees when the die finishes.
     */
    void
    bindCompletion(flash::Ppa ppa, sim::Tick completes)
    {
        DieQueue &q = queues[codec.globalDieOf(ppa)];
        for (std::size_t i = q.count; i-- > 0;) {
            if (q.at(i) == sim::kTickMax) {
                q.at(i) = completes;
                break;
            }
        }
    }

    /**
     * Parse one completed result frame on the channel (classify into
     * commands and feature payload).
     * @return Time the classification completes.
     */
    sim::Tick
    parse(sim::Tick frame_ready)
    {
        ++stats_.parsed;
        return frame_ready + ecfg.routerParse;
    }

    const DispatchStats &stats() const { return stats_; }

  private:
    /** Completion times of the commands occupying a die's queue
     *  slots, oldest first, in a ring of queueDepth slots (allocated
     *  once: routing a command never allocates). */
    struct DieQueue
    {
        std::vector<sim::Tick> slots;
        std::size_t head = 0;  ///< Slot of the oldest entry.
        std::size_t count = 0; ///< Entries held.

        /** The @p i-th oldest entry (i <= count). */
        sim::Tick &at(std::size_t i) { return slots[(head + i) % slots.size()]; }

        void
        trim(sim::Tick now)
        {
            while (count > 0 && at(0) <= now) {
                head = (head + 1) % slots.size();
                --count;
            }
        }
    };

    ssd::EngineConfig ecfg;
    flash::AddressCodec codec;
    unsigned queueDepth;
    std::vector<DieQueue> queues;
    DispatchStats stats_;
};

} // namespace beacongnn::engines

#endif // BEACONGNN_ENGINES_COMMAND_ROUTER_H
