/**
 * @file
 * SSD frontend + host system configuration (Table II).
 *
 * The constants here are the calibration points of the timing model:
 * embedded-core service times (the firmware bottleneck of Challenge
 * 3), SSD DRAM bandwidth (the BG-2 ceiling of Fig. 18d), NVMe/PCIe
 * host-link costs (the CC bottleneck of Fig. 15f), and the latencies
 * of the customized hardware engines (die sampler, channel router).
 */

#ifndef BEACONGNN_SSD_CONFIG_H
#define BEACONGNN_SSD_CONFIG_H

#include "flash/config.h"
#include "flash/disturb.h"
#include "sim/types.h"

namespace beacongnn::ssd {

/** SSD controller frontend parameters. */
struct ControllerConfig
{
    unsigned cores = 4;                     ///< Embedded processors.
    /** Core time to issue one backend flash command (poll queues,
     *  FTL lookup, channel programming). The firmware runs dedicated
     *  hardware threads for the I/O poller and the flash scheduler
     *  (Fig. 3), so half the cores issue and half consume. */
    sim::Tick coreIssueTime = sim::nanoseconds(150);
    /** Core time to consume one backend completion (poll status,
     *  configure DMA, update request queues). */
    sim::Tick coreCompleteTime = sim::nanoseconds(150);
    /** Extra core time to sample one page's neighbour list in
     *  firmware (BG-1 style software sampler). */
    sim::Tick coreSampleTime = sim::nanoseconds(400);
    /** Core time to run FTL translation for one host LPA. */
    sim::Tick ftlLookupTime = sim::nanoseconds(100);

    double dramMBps = 8000.0;              ///< SSD DRAM bandwidth.
};

/** Hardware NDP engine latencies (§V). */
struct EngineConfig
{
    /** Die sampler: fixed section-iterator + setup latency. */
    sim::Tick samplerSetup = sim::nanoseconds(200);
    /** Die sampler: per-draw latency (TRNG + modulo + lookup). */
    sim::Tick samplerPerDraw = sim::nanoseconds(30);
    /** Channel router: parse/classify one result frame. */
    sim::Tick routerParse = sim::nanoseconds(100);
    /** Crossbar hop to forward one command to another channel. */
    sim::Tick crossbarHop = sim::nanoseconds(50);
};

/** Host system parameters (CC baseline path). */
struct HostConfig
{
    /** NVMe command round trip (submit -> completion seen by host). */
    sim::Tick nvmeRoundTrip = sim::microseconds(15);
    double pcieMBps = 8000.0;               ///< PCIe Gen4 x4.
    /** Host-side node-index -> LPA translation per node (GNN app +
     *  filesystem metadata, §III Challenge 1). */
    sim::Tick translatePerNode = sim::nanoseconds(60);
    /** Host CPU neighbour-sampling cost per sampled node (parse the
     *  list, draw fanout samples, assemble results). */
    sim::Tick samplePerNode = sim::nanoseconds(2000);
    /** Host-side per-batch software overhead (batch assembly). */
    sim::Tick batchOverhead = sim::microseconds(20);
    /** Host software-stack cost per block I/O (syscall, filesystem,
     *  NVMe driver, completion) — the "redundant data copies and
     *  multiple address translations" of §I. */
    sim::Tick ioOverhead = sim::nanoseconds(4000);
    /** Host threads issuing block I/O in parallel. */
    unsigned ioThreads = 4;
};

/** Complete system configuration. */
struct SystemConfig
{
    flash::FlashConfig flash{};
    ControllerConfig controller{};
    EngineConfig engine{};
    HostConfig host{};
    /** Per-die read-disturbance model (DESIGN.md §17). Unarmed by
     *  default: zero retry probability draws nothing, inflates no
     *  timing and publishes no instruments. Array runs derive each
     *  device's seed from this one, so the dies of different devices
     *  degrade independently. */
    flash::DisturbConfig disturb{};
};

} // namespace beacongnn::ssd

#endif // BEACONGNN_SSD_CONFIG_H
