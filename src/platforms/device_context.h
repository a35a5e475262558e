/**
 * @file
 * DeviceContext: one SSD of the platform, fully wired — event queue,
 * flash backend, firmware frontend, optional channel-level command
 * router, die-level sampler bank, compute accelerator with its bus,
 * and (on arrays) an outbound P2P port. Platform runs of any device
 * count, the BeaconGnnSystem facade and the engine-level tests and
 * ablations all build their hardware from this one class, so there is
 * exactly one place that knows how a BeaconGNN SSD is assembled and
 * which metric names its components publish.
 */

#ifndef BEACONGNN_PLATFORMS_DEVICE_CONTEXT_H
#define BEACONGNN_PLATFORMS_DEVICE_CONTEXT_H

#include <memory>

#include "accel/accelerator.h"
#include "cache/vertex_cache.h"
#include "engines/gnn_engine.h"
#include "platforms/platform.h"
#include "platforms/topology.h"
#include "sim/event_queue.h"

namespace beacongnn::sim {
class MetricRegistry;
class TraceSink;
} // namespace beacongnn::sim

namespace beacongnn::platforms {

struct WorkloadBundle;

/** One SSD of a (possibly single-device) platform run. */
class DeviceContext
{
  public:
    /**
     * Assemble the device exactly as the historical single-SSD runner
     * did: backend + firmware from the run's SystemConfig, the FTL
     * mirroring the bundle's block reservation, a router iff the
     * platform uses the hardware command path, the sampler bank
     * configured from the bundle's GNN model, and the platform's
     * accelerator. A P2P port exists only when @p topo spans more
     * than one device.
     *
     * @param platform Platform flags (router, sampling location...).
     * @param system   SSD system configuration of the run.
     * @param topo     Array topology (devices = 1 for a plain run).
     * @param model    GNN model (die-sampler global configuration).
     * @param blocks   Block reservation to mirror into this FTL.
     * @param index    Device index within the topology.
     * @param trace_utilization Record per-unit busy intervals.
     * @param cache_cfg Device-DRAM cache tier sizing (disabled by
     *                  default; DESIGN.md §14).
     */
    DeviceContext(const PlatformConfig &platform,
                  const ssd::SystemConfig &system,
                  const TopologyConfig &topo, const gnn::ModelConfig &model,
                  const std::vector<flash::BlockId> &blocks, unsigned index,
                  bool trace_utilization,
                  const cache::CacheConfig &cache_cfg = {});

    /** Engine-facing view of this device's hardware, including its
     *  own event queue, which the engine's driver runs. */
    engines::DevicePort port();

    flash::FlashBackend &backend() { return _backend; }
    const flash::FlashBackend &backend() const { return _backend; }
    ssd::Firmware &firmware() { return _fw; }
    accel::Accelerator &accelerator() { return _accel; }

    /**
     * Book one compute job of @p service ticks on the accelerator's
     * serializing bus, no earlier than @p ready. The job streams the
     * @p feature_bytes this device prepared from DRAM into the
     * accelerator's SRAM, except when features reach the accelerator
     * over the host (featuresViaHost) or straight from flash
     * (bypassDram, §VIII), which skip DRAM.
     */
    sim::Grant compute(sim::Tick ready, sim::Tick service,
                       std::uint64_t feature_bytes);
    /** Ticks the accelerator has been busy with compute jobs. */
    sim::Tick accelBusy() const { return _accelBus.busyTime(); }

    /** Outbound P2P port (nullptr on a single device). */
    sim::BandwidthResource *p2pOut() { return _p2p.get(); }
    const sim::BandwidthResource *p2pOut() const { return _p2p.get(); }
    /** This device's cache tallies (zeros when the tier is off). */
    cache::CacheStats cacheStats() const
    {
        return _cache ? _cache->stats() : cache::CacheStats{};
    }

    unsigned index() const { return _index; }
    /** Chrome-trace pid base of this device (4 pids per device). */
    std::uint32_t tracePidBase() const;

    /**
     * Publish every owned component's instruments into @p reg under
     * the historical single-device names (`flash.*`, `ssd.*`,
     * `engine.sampler.*`, `engine.router.*`, `accel.busy_ticks`).
     * Array code merges each device's registry twice — unprefixed for
     * the aggregate view and under `array.dev<D>.` for the per-device
     * view.
     */
    void publishMetrics(sim::MetricRegistry &reg) const;

    /** Attach a Chrome-trace sink on this device's pid range. */
    void setTraceSink(sim::TraceSink *sink, bool multi);

  private:
    unsigned _index;
    /** Local clock: all of this device's events run here. */
    sim::EventQueue _queue;
    flash::FlashBackend _backend;
    ssd::Firmware _fw;
    engines::DieSampler _sampler;
    /** Hardware command path (constructed when flags.hwRouter). */
    std::unique_ptr<engines::CommandRouter> _router;
    accel::Accelerator _accel;
    sim::Bus _accelBus{"accel"};
    /** Compute jobs stage their features through DRAM. */
    const bool _stageFeatures;
    std::unique_ptr<sim::BandwidthResource> _p2p;
    /** Device-DRAM vertex/feature cache (built iff the run enables
     *  it; DESIGN.md §14). */
    std::unique_ptr<cache::VertexCache> _cache;
};

} // namespace beacongnn::platforms

#endif // BEACONGNN_PLATFORMS_DEVICE_CONTEXT_H
