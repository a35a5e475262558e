#include "platforms/device_context.h"

#include <string>

#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/trace_events.h"

namespace beacongnn::platforms {

DeviceContext::DeviceContext(const PlatformConfig &platform,
                             const ssd::SystemConfig &system,
                             const TopologyConfig &topo,
                             const gnn::ModelConfig &model,
                             const std::vector<flash::BlockId> &blocks,
                             unsigned index, bool trace_utilization,
                             const cache::CacheConfig &cache_cfg)
    : _index(index), _backend(system.flash, trace_utilization),
      _fw(system),
      _sampler(system.engine, engines::gnnGlobalConfig(model),
               engines::DieSamplerOptions{platform.flags.coalesceSecondary}),
      _accel(platform.flags.featuresViaHost
                 ? accel::discreteTpuConfig()
                 : accel::ssdAcceleratorConfig()),
      _stageFeatures(!platform.flags.featuresViaHost &&
                     !platform.flags.bypassDram)
{
    // Mirror the bundle's block reservation in this device's FTL.
    // The layout's addresses are only valid if this FTL reserves the
    // *same* blocks the bundle was laid out on, so mirror the exact
    // list rather than re-reserving by count.
    if (!_fw.ftl().reserveExact(blocks))
        sim::fatal("DeviceContext: cannot mirror the bundle's block "
                   "reservation (geometry mismatch?)");
    if (platform.flags.hwRouter) {
        _router = std::make_unique<engines::CommandRouter>(
            _fw.config().engine, _backend.config());
    }
    if (topo.multi())
        _p2p = std::make_unique<sim::BandwidthResource>(topo.p2pMBps,
                                                        "p2p");
    if (cache_cfg.enabled())
        _cache = std::make_unique<cache::VertexCache>(cache_cfg);
    if (system.disturb.armed()) {
        // Each device derives its own disturbance seed, so an array
        // does not replay identical per-die severity maps on every
        // member — while the derivation stays a pure function of
        // (run seed, device index).
        flash::DisturbConfig d = system.disturb;
        d.seed = sim::splitmix64(
            d.seed ^ (0x9E3779B97F4A7C15ull * (std::uint64_t{index} + 1)));
        _backend.setDisturb(d);
    }
}

engines::DevicePort
DeviceContext::port()
{
    engines::DevicePort p;
    p.backend = &_backend;
    p.fw = &_fw;
    p.router = _router.get();
    p.sampler = &_sampler;
    p.cache = _cache.get();
    p.p2pOut = _p2p.get();
    p.queue = &_queue;
    p.tracePidBase = tracePidBase();
    return p;
}

sim::Grant
DeviceContext::compute(sim::Tick ready, sim::Tick service,
                       std::uint64_t feature_bytes)
{
    sim::Grant g = _accelBus.acquire(ready, service);
    if (_stageFeatures && feature_bytes > 0)
        _fw.dram().acquire(g.start, feature_bytes);
    return g;
}

std::uint32_t
DeviceContext::tracePidBase() const
{
    // Four pids per device: engine spans stay on the global pid 0, so
    // device 0's range coincides with the historical single-SSD pids.
    return 4u * _index;
}

void
DeviceContext::publishMetrics(sim::MetricRegistry &reg) const
{
    _backend.publishMetrics(reg);
    _fw.publishMetrics(reg);
    _sampler.publishMetrics(reg);
    if (_router) {
        engines::DispatchStats s = _router->stats();
        reg.counter("engine.router.commands_routed").add(s.routed);
        reg.counter("engine.router.frames_parsed").add(s.parsed);
        reg.counter("engine.router.cross_channel").add(s.crossChannel);
        reg.gauge("engine.router.peak_queue")
            .set(static_cast<double>(s.peakQueue));
    }
    reg.counter("accel.busy_ticks").add(accelBusy());
}

void
DeviceContext::setTraceSink(sim::TraceSink *sink, bool multi)
{
    std::string prefix =
        multi ? "dev" + std::to_string(_index) + " " : std::string();
    _backend.setTraceSink(sink, tracePidBase(), prefix);
}

} // namespace beacongnn::platforms
