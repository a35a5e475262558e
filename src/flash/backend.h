/**
 * @file
 * Timing model of the flash backend: per-die sense units and per-
 * channel buses, with MQSim-style analytic FIFO occupancy.
 *
 * The model captures the three effects the paper's motivation hinges
 * on:
 *  - dies sense in parallel but their results serialize on the shared
 *    channel bus (Fig. 6);
 *  - a die with an undrained data register cannot begin a new sense
 *    (single-buffered cache/data register pair), so channel congestion
 *    back-pressures the dies;
 *  - per-transaction command/address cycles consume channel time.
 */

#ifndef BEACONGNN_FLASH_BACKEND_H
#define BEACONGNN_FLASH_BACKEND_H

#include <cstdint>
#include <string>
#include <vector>

#include "flash/address.h"
#include "flash/config.h"
#include "flash/disturb.h"
#include "sim/resources.h"

namespace beacongnn::sim {
class MetricRegistry;
class TraceSink;
} // namespace beacongnn::sim

namespace beacongnn::flash {

/** Timing decomposition of one backend flash operation. */
struct FlashOpTiming
{
    sim::Tick cmdStart = 0;   ///< Command/address cycles begin (channel).
    sim::Tick senseStart = 0; ///< Array sense begins (die).
    sim::Tick senseEnd = 0;   ///< Sense + on-die compute complete.
    sim::Tick xferStart = 0;  ///< Data-out begins (channel).
    sim::Tick xferEnd = 0;    ///< Result fully off the die.
    /** Read-retry rounds this sense needed (disturbance model). */
    unsigned retries = 0;
    /** The target die was killed: no data came back (DESIGN.md §17).
     *  senseEnd/xferEnd hold the failure-detection time. */
    bool failed = false;

    /** Time on the die and the channel: sense plus transfer. */
    sim::Tick
    flashTime() const
    {
        return (senseEnd - senseStart) + (xferEnd - xferStart);
    }
};

/**
 * The flash backend: all channels and dies of the device, exposed as
 * analytic timing resources plus physical address decoding.
 */
class FlashBackend
{
  public:
    /**
     * @param cfg   Geometry and timing.
     * @param trace Record per-die / per-channel busy intervals
     *              (needed for Fig. 15, costs memory).
     */
    explicit FlashBackend(const FlashConfig &cfg, bool trace = false);

    const FlashConfig &config() const { return cfg; }
    const AddressCodec &codec() const { return _codec; }

    /**
     * Perform a page read.
     *
     * @param ready          Earliest start time.
     * @param ppa            Target page.
     * @param transfer_bytes Bytes returned over the channel (a full
     *                       page without a die sampler; a result frame
     *                       with one).
     * @param on_die_compute Extra die-side latency after the sense
     *                       (die-level sampler execution time).
     */
    FlashOpTiming read(sim::Tick ready, Ppa ppa,
                       std::uint32_t transfer_bytes,
                       sim::Tick on_die_compute = 0);

    /** Program a page: data-in over the channel, then tPROG on the die. */
    FlashOpTiming program(sim::Tick ready, Ppa ppa,
                          std::uint32_t transfer_bytes);

    /** Erase a block: tBERS occupancy on the owning die. */
    FlashOpTiming erase(sim::Tick ready, BlockId block);

    /** Per-channel bus (index < config().channels). */
    sim::Bus &channel(unsigned idx) { return channels.at(idx); }
    const sim::Bus &channel(unsigned idx) const { return channels.at(idx); }

    /** Per-die sense unit (global die index). */
    sim::Bus &die(unsigned global_idx) { return dies.at(global_idx); }
    const sim::Bus &die(unsigned global_idx) const
    {
        return dies.at(global_idx);
    }

    unsigned channelCount() const
    {
        return static_cast<unsigned>(channels.size());
    }
    unsigned dieCount() const { return static_cast<unsigned>(dies.size()); }

    /** Aggregate busy time over all dies. */
    sim::Tick totalDieBusy() const;
    /** Aggregate busy time over all channels. */
    sim::Tick totalChannelBusy() const;

    /** Backend page reads performed so far. */
    std::uint64_t reads() const { return _reads; }

    /**
     * Arm the per-die disturbance model (DESIGN.md §17). Call before
     * the first read; an unarmed (default) backend draws nothing and
     * publishes no disturbance instruments, so its timing and metrics
     * stay byte-identical to the historical backend.
     */
    void setDisturb(const DisturbConfig &d);

    /**
     * Kill one die at @p at: reads targeting it at or after that tick
     * fail (FlashOpTiming::failed) instead of sensing, occupying the
     * die only for the command cycles that discover the failure.
     */
    void killDieAt(unsigned global_idx, sim::Tick at);

    /**
     * Publish the backend's instruments into @p reg under the
     * `flash.` namespace: device-wide op counters and busy ticks,
     * plus per-unit `flash.ch<c>[.die<d>].*` counters (and
     * `busy_intervals` traces when interval tracing is enabled).
     */
    void publishMetrics(sim::MetricRegistry &reg) const;

    /**
     * Attach a Chrome-trace sink: every subsequent read/program/erase
     * emits complete events on per-die and per-channel tracks. Also
     * registers the track names. nullptr detaches.
     *
     * @param pid_base    Added to every TracePid this backend emits,
     *                    so the devices of an array get disjoint
     *                    process tracks (device d uses 4*d).
     * @param name_prefix Prepended to the registered process names
     *                    (e.g. "dev2 ").
     */
    void setTraceSink(sim::TraceSink *sink, std::uint32_t pid_base = 0,
                      const std::string &name_prefix = "");

    /** Reset all occupancy and statistics (keeps configuration). */
    void resetStats();

  private:
    /** Full metric name of one die's instrument (@p global_idx as in
     *  die()), e.g. dieMetricName(5, "sense_ticks"). */
    std::string dieMetricName(unsigned global_idx,
                              const char *instrument) const;
    /** Full metric name of one channel's instrument. */
    std::string channelMetricName(unsigned channel,
                                  const char *instrument) const;

    FlashConfig cfg;
    AddressCodec _codec;
    std::vector<sim::Bus> channels;
    std::vector<sim::Bus> dies;
    /** Per-die completion time of the previous data-out (dual-
     *  register pipelining constraint). */
    std::vector<sim::Tick> prevXfer;
    bool tracingIntervals = false;
    std::uint64_t _reads = 0;
    std::uint64_t _programs = 0;
    std::uint64_t _erases = 0;
    // ---- Disturbance model (DESIGN.md §17; unarmed by default) ----
    DisturbConfig _disturb;
    /** Per-die retry probability (base x seeded severity factor). */
    std::vector<double> dieRetryProb;
    /** Per-die read sequence numbers keying the retry draws. */
    std::vector<std::uint64_t> dieReadSeq;
    /** Per-die retry-round tallies (flash.chC.dieD.retries). */
    std::vector<std::uint64_t> dieRetries;
    /** Per-die kill tick (kTickMax = healthy). */
    std::vector<sim::Tick> dieKillAt;
    bool _hasKills = false;
    std::uint64_t _retries = 0;
    std::uint64_t _failedReads = 0;
    sim::TraceSink *traceSink = nullptr;
    std::uint32_t tracePidBase = 0;
};

/** Trace track (pid) ids used by the backend and the engine layer. */
enum TracePid : std::uint32_t
{
    kTraceEnginePid = 0, ///< Command-lifetime async spans + batches.
    kTraceDiePid = 1,    ///< One tid per global die index.
    kTraceChannelPid = 2,///< One tid per channel index.
    kTraceDramPid = 3,   ///< SSD DRAM transfers.
};

} // namespace beacongnn::flash

#endif // BEACONGNN_FLASH_BACKEND_H
