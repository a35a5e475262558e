#include "platforms/runner.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>

#include "directgraph/builder.h"
#include "gnn/compute.h"
#include "platforms/device_context.h"
#include "platforms/partition.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/trace_events.h"
#include "sim/validator.h"
#include "sim/zipf.h"
#include "ssd/firmware.h"

namespace beacongnn::platforms {

std::unique_ptr<WorkloadBundle>
makeBundle(const graph::WorkloadSpec &spec,
           const flash::FlashConfig &flash_cfg, gnn::ModelConfig model,
           graph::NodeId node_override)
{
    auto bundle = std::make_unique<WorkloadBundle>();
    WorkloadBundle &b = *bundle;
    b.name = spec.name;
    graph::WorkloadSpec s = spec;
    if (node_override != 0)
        s.simNodes = node_override;
    b.graph = s.makeGraph();
    b.features = s.makeFeatures();
    model.featureDim = s.featureDim;
    b.model = model;

    const std::uint64_t blocks =
        dg::reservedBlockCount(b.graph, b.features, flash_cfg);
    ssd::Ftl ftl(flash_cfg);
    auto reserved = ftl.reserveBlocks(blocks);
    if (reserved.empty())
        sim::fatal("makeBundle: cannot reserve " +
                   std::to_string(blocks) + " blocks");
    b.layout = dg::buildLayout(b.graph, b.features, flash_cfg, reserved);
    b.source = std::make_unique<dg::LayoutSource>(b.layout, b.graph);
    return bundle;
}

namespace {

/** Plain decimal digits no larger than @p max; nullopt otherwise. */
std::optional<std::uint64_t>
parseBounded(std::string_view text, std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (max - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

} // namespace

std::optional<KillEvent>
parseKillEvent(std::string_view spec)
{
    const std::size_t at = spec.find('@');
    if (at == std::string_view::npos)
        return std::nullopt;
    const std::string_view target = spec.substr(0, at);
    const std::size_t dot = target.find('.');
    KillEvent k;
    const auto device = parseBounded(target.substr(0, dot),
                                     std::numeric_limits<unsigned>::max());
    if (!device)
        return std::nullopt;
    k.device = static_cast<unsigned>(*device);
    if (dot != std::string_view::npos) {
        const auto die = parseBounded(target.substr(dot + 1),
                                      std::numeric_limits<int>::max());
        if (!die)
            return std::nullopt;
        k.die = static_cast<int>(*die);
    }
    const auto us = parseBounded(spec.substr(at + 1),
                                 sim::kTickMax / sim::microseconds(1));
    if (!us)
        return std::nullopt;
    k.at = sim::microseconds(*us);
    return k;
}

/** The component tree of one open platform run. */
struct PlatformSession::Impl
{
    PlatformConfig platform;
    RunConfig run;
    const WorkloadBundle &bundle;

    /** Node → primary-owner map (degenerate for a single device); the
     *  engine chains the replicas off it (DESIGN.md §17). */
    Partition partition;
    /** Per-device whole-device kill ticks (sim::kTickMax = healthy);
     *  borrowed by the engine's replica router when the run schedules
     *  faults. */
    std::vector<sim::Tick> deviceKillAt;
    /** The SSDs of the topology (one for a plain run); each owns its
     *  event queue (its local clock, DESIGN.md §13). */
    std::vector<std::unique_ptr<DeviceContext>> devices;
    std::unique_ptr<engines::GnnEngine> engine;
    /** Per-device backend trace shards (multi-device runs with a
     *  sink): worker threads never share a sink; finish() absorbs the
     *  shards in device order, so the final trace is byte-identical
     *  for every worker count. */
    std::vector<std::unique_ptr<sim::TraceSink>> backendShards;

    /** The run totals (cmdStats, tally, commands, targets, perDevice
     *  and the replica fallbacks), merged batch by batch in batch
     *  order; finish() derives the rest from them. */
    RunResult res;
    /** Written once, by finish(). */
    sim::MetricRegistry reg;
    sim::Tick prepFree = 0;
    sim::Tick lastComputeEnd = 0;
    std::uint32_t batches = 0;
    /** Flash reads batch-level deduplication avoided. */
    std::uint64_t dedupedReads = 0;
    /** The batches' compute estimates, summed. */
    accel::ComputeEstimate compute;
    /** Model spec the next batch runs (bundle model unless overridden
     *  by RunConfig::model or a per-batch runBatch() spec). */
    gnn::ModelSpec active;

    Impl(const PlatformConfig &p, const RunConfig &r,
         const WorkloadBundle &b)
        : platform(p), run(r), bundle(b),
          active(r.model ? *r.model : b.model)
    {
        const TopologyConfig &topo = run.topology;
        if (topo.devices == 0)
            sim::fatal("PlatformSession: zero devices");
        if (topo.multi()) {
            if (!p.flags.directGraph)
                sim::fatal("PlatformSession: multi-device topologies "
                           "require a streaming (DirectGraph) "
                           "platform, not " + p.name);
            partition =
                Partition::build(b.graph, topo.partition, topo.devices);
        }
        std::vector<engines::DevicePort> ports;
        for (unsigned d = 0; d < topo.devices; ++d) {
            devices.push_back(std::make_unique<DeviceContext>(
                p, r.system, topo, active, b.layout.blocks, d,
                r.traceUtilization, r.cache));
            ports.push_back(devices.back()->port());
        }
        res.perDevice.resize(devices.size());

        // Apply the fault schedule (DESIGN.md §17): a single-die kill
        // fails only the reads landing on that die; a whole-device
        // kill fails every die *and* removes the device from the
        // engine's replica routing from its kill tick on.
        deviceKillAt.assign(topo.devices, sim::kTickMax);
        for (const KillEvent &k : run.kills) {
            if (k.device >= topo.devices)
                sim::fatal("PlatformSession: kill schedule names "
                           "device " + std::to_string(k.device) +
                           " of a " + std::to_string(topo.devices) +
                           "-device topology");
            flash::FlashBackend &be = devices[k.device]->backend();
            const unsigned dies = be.dieCount();
            if (k.die >= 0) {
                if (static_cast<unsigned>(k.die) >= dies)
                    sim::fatal("PlatformSession: kill schedule names "
                               "die " + std::to_string(k.die) +
                               " of a " + std::to_string(dies) +
                               "-die device");
                be.killDieAt(static_cast<unsigned>(k.die), k.at);
            } else {
                for (unsigned die = 0; die < dies; ++die)
                    be.killDieAt(die, k.at);
                deviceKillAt[k.device] =
                    std::min(deviceKillAt[k.device], k.at);
            }
        }

        engines::FabricConfig fabric;
        fabric.p2pLatency = topo.p2pLatency;
        fabric.owner =
            partition.table().empty() ? nullptr : &partition.table();
        fabric.replication = topo.effectiveReplication();
        if (!run.kills.empty())
            fabric.deviceKillAt = &deviceKillAt;
        engine = std::make_unique<engines::GnnEngine>(
            std::move(ports), b.layout, b.graph, active, p.flags,
            *b.source, fabric);

        if (r.traceSink) {
            for (const auto &dev : devices) {
                if (topo.multi()) {
                    backendShards.push_back(
                        std::make_unique<sim::TraceSink>());
                    dev->setTraceSink(backendShards.back().get(), true);
                } else {
                    dev->setTraceSink(r.traceSink, false);
                }
            }
            engine->setTraceSink(r.traceSink);
        }
        res.platform = platform.name;
        res.workload = bundle.name;
        res.devices = topo.devices;
        res.replication = topo.effectiveReplication();
        res.faults = run.kills;
    }
};

PlatformSession::PlatformSession(const PlatformConfig &platform,
                                 const RunConfig &run,
                                 const WorkloadBundle &bundle)
    : impl(std::make_unique<Impl>(platform, run, bundle))
{
}

PlatformSession::~PlatformSession() = default;

sim::Tick
PlatformSession::prepFree() const
{
    return impl->prepFree;
}

BatchService
PlatformSession::runBatch(sim::Tick ready,
                          std::span<const graph::NodeId> targets)
{
    Impl &s = *impl;
    BatchService svc;

    engines::PrepResult pr =
        s.engine->run(std::max(ready, s.prepFree), s.batches, targets);
    if (!pr.ok)
        s.res.ok = false;
    svc.ok = pr.ok;
    svc.prepStart = pr.start;
    svc.prepFinish = pr.finish;

    // Compute of this batch overlaps the next batch's prep. Every
    // device computes its 1/devices shard of the batch on its own
    // accelerator, staging the features it prepared locally.
    gnn::ComputeWorkload w =
        gnn::measureCompute(pr.subgraph, s.active);
    const sim::Tick ndev = static_cast<sim::Tick>(s.devices.size());
    accel::ComputeEstimate est = s.devices[0]->accelerator().estimate(w);
    sim::Tick compute_start = 0;
    sim::Tick compute_end = 0;
    for (std::size_t d = 0; d < s.devices.size(); ++d) {
        sim::Grant cg = s.devices[d]->compute(
            pr.finish, est.total() / ndev, pr.perDevice[d].featureBytes);
        compute_start = d == 0 ? cg.start
                               : std::min(compute_start, cg.start);
        compute_end = std::max(compute_end, cg.end);
    }
    svc.computeStart = compute_start;
    svc.computeEnd = compute_end;
    s.lastComputeEnd = std::max(s.lastComputeEnd, compute_end);

    // Merge the batch into the run totals; finish() publishes them.
    RunResult &res = s.res;
    s.compute.merge(est);
    res.cmdStats.merge(pr.cmdStats);
    res.tally.merge(pr.tally);
    res.commands += pr.commands;
    s.dedupedReads += pr.dedupedReads;
    res.targets += targets.size();
    for (std::size_t d = 0; d < res.perDevice.size(); ++d)
        res.perDevice[d].merge(pr.perDevice[d]);
    res.replicaFallbacks += pr.replicaFallbacks;
    res.hops = pr.hops;
    res.lastBatchStart = pr.start;
    res.lastSubgraph = std::move(pr.subgraph);
    s.prepFree = pr.finish;
    ++s.batches;
    return svc;
}

BatchService
PlatformSession::runBatch(sim::Tick ready,
                          std::span<const graph::NodeId> targets,
                          const gnn::ModelSpec &model)
{
    Impl &s = *impl;
    if (!(model == s.active)) {
        s.engine->setModel(model);
        s.active = model;
    }
    return runBatch(ready, targets);
}

RunResult
PlatformSession::finish()
{
    Impl &s = *impl;
    sim::MetricRegistry &reg = s.reg;
    RunResult res = std::move(s.res);
    const std::size_t ndev = s.devices.size();

    cache::CacheStats cache_agg;
    sim::Tick die_busy = 0;
    sim::Tick channel_busy = 0;
    sim::Tick core_busy = 0;
    sim::Tick dram_busy = 0;
    sim::Tick pcie_busy = 0;
    for (const auto &dev : s.devices) {
        cache_agg.merge(dev->cacheStats());
        die_busy += dev->backend().totalDieBusy();
        channel_busy += dev->backend().totalChannelBusy();
        core_busy += dev->firmware().coreBusyTime();
        dram_busy += dev->firmware().dram().busyTime();
        pcie_busy += dev->firmware().pcie().busyTime();
        res.accelBusy += dev->accelBusy();
    }

    // A command crosses the fabric exactly when its source device
    // forwards it over its P2P port, and any issued command may be
    // forwarded: a sensed one or a streaming dedupe or cache hit,
    // which issues no flash command and so is not in `commands` (a
    // barrier cache hit is). The fraction divides by all of them
    // (DESIGN.md §12).
    for (const engines::DeviceTally &t : res.perDevice)
        res.crossDevice += t.p2pForwards;
    const std::uint64_t issued =
        res.commands + (s.platform.flags.directGraph ? cache_agg.hits : 0) +
        s.dedupedReads;
    res.crossFraction = issued == 0
                            ? 0.0
                            : static_cast<double>(res.crossDevice) /
                                  static_cast<double>(issued);

    res.prepTime = s.prepFree;
    res.totalTime = std::max(s.prepFree, s.lastComputeEnd);
    res.throughput = res.totalTime == 0
                         ? 0.0
                         : static_cast<double>(res.targets) /
                               sim::toSeconds(res.totalTime);

    // Resource utilizations over the run. The busy ticks sum over
    // every device, so the unit counts scale by the device count.
    const flash::FlashBackend &backend0 = s.devices[0]->backend();
    ssd::Firmware &fw0 = s.devices[0]->firmware();
    const sim::Tick horizon = std::max<sim::Tick>(1, res.totalTime);
    const auto share = [&](sim::Tick busy, double units) {
        return static_cast<double>(busy) /
               (static_cast<double>(horizon) * units *
                static_cast<double>(ndev));
    };
    res.dieUtil = share(die_busy, backend0.dieCount());
    res.channelUtil = share(channel_busy, backend0.channelCount());
    res.coreUtil = share(core_busy,
                         static_cast<double>(fw0.issueCores().size() +
                                             fw0.completeCores().size()));
    res.dramUtil = share(dram_busy, 1.0);
    res.pcieUtil = share(pcie_busy, 1.0);

    if (s.run.traceUtilization) {
        // The series counts active units across the whole fleet, in
        // device order.
        std::vector<const sim::IntervalTrace *> die_traces;
        std::vector<const sim::IntervalTrace *> ch_traces;
        for (const auto &dev : s.devices) {
            const flash::FlashBackend &be = dev->backend();
            for (unsigned d = 0; d < be.dieCount(); ++d)
                die_traces.push_back(&be.die(d).intervals());
            for (unsigned c = 0; c < be.channelCount(); ++c)
                ch_traces.push_back(&be.channel(c).intervals());
        }
        res.dieSeries = sim::activeSeries(die_traces, horizon,
                                          s.run.utilizationBuckets);
        res.channelSeries = sim::activeSeries(ch_traces, horizon,
                                              s.run.utilizationBuckets);
    }

    // Energy accounting.
    energy::EnergyInputs in;
    in.tally = res.tally;
    in.coreBusy = core_busy;
    in.accelMacs = s.compute.macs;
    in.accelSramBytes = s.compute.sramBytes;
    in.engineCommands = (s.platform.flags.sampling ==
                         engines::SamplingLoc::Die)
                            ? res.tally.flashReads
                            : 0;
    in.duration = res.totalTime;
    res.energy = energy::account(energy::EnergyConstants{}, in);
    res.avgPowerW = res.totalTime == 0 ? 0.0
                                       : res.energy.total() /
                                             sim::toSeconds(res.totalTime);

    // The one publish: every component's instruments, then the run
    // totals and what was derived from them above. A single device
    // publishes straight into the session registry (the historical
    // names); an array publishes each device into a scratch registry
    // first, then merges it twice — unprefixed for the aggregate view
    // and under `array.dev<D>.` for the per-device view.
    if (ndev == 1) {
        s.devices[0]->publishMetrics(reg);
    } else {
        for (const auto &dev : s.devices) {
            sim::MetricRegistry dev_reg;
            dev->publishMetrics(dev_reg);
            reg.merge(dev_reg);
            reg.merge(dev_reg,
                      "array.dev" + std::to_string(dev->index()) + ".");
        }
    }
    s.engine->publishMetrics(reg);
    res.cmdStats.publish(reg);
    res.tally.publish(reg);
    accel::publishEstimate(reg, s.compute, s.batches);
    reg.counter("engine.commands").add(res.commands);
    reg.counter("engine.deduped_reads").add(s.dedupedReads);
    reg.counter("run.batches").add(s.batches);
    reg.counter("run.targets").add(res.targets);
    // The router's fallback counter exists only when it has a replica
    // to choose or a device to avoid, so default snapshots stay
    // byte-identical.
    const bool device_killed =
        std::any_of(s.deviceKillAt.begin(), s.deviceKillAt.end(),
                    [](sim::Tick t) { return t != sim::kTickMax; });
    if (s.run.topology.effectiveReplication() > 1 || device_killed)
        reg.counter("engine.router.replica_fallbacks")
            .add(res.replicaFallbacks);
    reg.counter("run.prep_ticks").add(res.prepTime);
    reg.counter("run.total_ticks").add(res.totalTime);
    energy::publish(reg, res.energy);
    reg.gauge("energy.avg_power_w").set(res.avgPowerW);
    reg.gauge("run.throughput").set(res.throughput);
    reg.gauge("run.die_util").set(res.dieUtil);
    reg.gauge("run.channel_util").set(res.channelUtil);
    reg.gauge("run.core_util").set(res.coreUtil);
    reg.gauge("run.dram_util").set(res.dramUtil);
    reg.gauge("run.pcie_util").set(res.pcieUtil);
    reg.gauge("run.ok").set(res.ok ? 1.0 : 0.0);

    // Model-zoo instruments exist only when the task deviates from
    // the historical gcn / uniform-fanout configuration, so default
    // snapshots stay byte-identical to pre-model-zoo goldens.
    const gnn::ModelSpec &m = s.active;
    if (m.kind != gnn::ModelKind::GCN || !m.uniformFanout()) {
        reg.gauge("model.kind_id")
            .set(static_cast<double>(static_cast<unsigned>(m.kind)));
        reg.gauge("model.hops").set(static_cast<double>(m.hops));
        std::uint64_t fan_total = 0;
        for (unsigned h = 0; h < m.hops; ++h)
            fan_total += m.fanoutAt(h);
        reg.gauge("model.fanout_total")
            .set(static_cast<double>(fan_total));
        reg.gauge("model.feature_dim")
            .set(static_cast<double>(m.featureDim));
        reg.gauge("model.hidden_dim")
            .set(static_cast<double>(m.hiddenDim));
        reg.gauge("model.edge_coeff_bytes")
            .set(static_cast<double>(m.edgeCoeffBytes()));
    }

    // Array-level instruments exist only on multi-device runs, so a
    // devices = 1 snapshot stays byte-identical to the historical
    // single-SSD snapshot.
    if (ndev > 1) {
        // Synchronization windows of the conservative parallel driver
        // (a pure function of the event timeline: identical for every
        // worker count, so it may live in the metrics snapshot).
        reg.gauge("run.sim_windows")
            .set(static_cast<double>(s.engine->windows()));
        if (s.run.traceSink) {
            s.engine->flushTraceShards();
            for (const auto &shard : s.backendShards)
                s.run.traceSink->absorb(*shard);
            s.backendShards.clear();
        }
        reg.gauge("array.devices").set(static_cast<double>(ndev));
        reg.counter("array.commands").add(res.commands);
        reg.counter("array.cross_device").add(res.crossDevice);
        reg.gauge("array.cross_fraction").set(res.crossFraction);
        std::uint64_t p2p_bytes = 0;
        sim::Tick p2p_busy = 0;
        for (std::size_t d = 0; d < ndev; ++d) {
            const engines::DeviceTally &t = res.perDevice[d];
            const std::string prefix =
                "array.dev" + std::to_string(d) + ".";
            reg.counter(prefix + "commands").add(t.commands);
            reg.counter(prefix + "flash_reads").add(t.flashReads);
            reg.counter(prefix + "feature_bytes").add(t.featureBytes);
            reg.counter(prefix + "p2p.out_forwards").add(t.p2pForwards);
            reg.counter(prefix + "p2p.out_bytes").add(t.p2pBytes);
            const sim::BandwidthResource *link =
                s.devices[d]->p2pOut();
            sim::Tick busy = link ? link->busyTime() : 0;
            reg.counter(prefix + "p2p.busy_ticks").add(busy);
            p2p_bytes += t.p2pBytes;
            p2p_busy += busy;
        }
        reg.counter("array.p2p.forwards").add(res.crossDevice);
        reg.counter("array.p2p.bytes").add(p2p_bytes);
        reg.counter("array.p2p.busy_ticks").add(p2p_busy);

        // Health/fault instruments exist only when replication or a
        // fault model is armed, so default array snapshots stay
        // byte-identical to the historical ones.
        const bool faults_armed =
            s.run.topology.effectiveReplication() > 1 ||
            !s.run.kills.empty() || s.run.system.disturb.armed();
        if (faults_armed) {
            reg.gauge("array.replication")
                .set(static_cast<double>(res.replication));
            reg.counter("array.replica_fallbacks")
                .add(res.replicaFallbacks);
            for (std::size_t d = 0; d < ndev; ++d) {
                const std::string prefix =
                    "array.dev" + std::to_string(d) + ".health.";
                const engines::DeviceHealth h = s.engine->healthOf(
                    static_cast<unsigned>(d));
                reg.gauge(prefix + "latency_ewma_us")
                    .set(h.latencyEwmaUs);
                reg.counter(prefix + "samples").add(h.samples);
                reg.gauge(prefix + "alive")
                    .set(s.deviceKillAt[d] == sim::kTickMax ? 1.0
                                                            : 0.0);
            }
        }
    }

    // Cache-tier instruments exist only when the run configured a
    // cache, so cache-off snapshots stay byte-identical to the
    // historical ones. The aggregate hit rate is computed here, once,
    // from the summed tallies (never merged as a gauge — Gauge merge
    // is last-write-wins) and 0/0 guards to 0.0 like crossFraction.
    if (s.run.cache.enabled()) {
        reg.counter("engine.cache.hits").add(cache_agg.hits);
        reg.counter("engine.cache.misses").add(cache_agg.misses);
        reg.counter("engine.cache.fills").add(cache_agg.fills);
        reg.counter("engine.cache.evictions").add(cache_agg.evictions);
        reg.counter("engine.cache.bytes").add(cache_agg.bytes);
        reg.gauge("engine.cache.hit_rate").set(cache_agg.hitRate());
        if (ndev > 1) {
            for (const auto &dev : s.devices) {
                const cache::CacheStats st = dev->cacheStats();
                const std::string prefix =
                    "array.dev" + std::to_string(dev->index()) +
                    ".cache.";
                reg.counter(prefix + "hits").add(st.hits);
                reg.counter(prefix + "misses").add(st.misses);
                reg.counter(prefix + "fills").add(st.fills);
                reg.counter(prefix + "evictions").add(st.evictions);
                reg.counter(prefix + "bytes").add(st.bytes);
                reg.gauge(prefix + "hit_rate").set(st.hitRate());
            }
        }
    }
    if constexpr (sim::kCheckedBuild) {
        if (const std::string broken = auditTotals(res); !broken.empty())
            sim::panic("PlatformSession: conservation audit: " + broken);
    }
    return res;
}

std::string
auditTotals(const RunResult &r)
{
    engines::DeviceTally sum;
    for (const engines::DeviceTally &t : r.perDevice)
        sum.merge(t);
    const auto differ = [](const char *what, std::uint64_t devices,
                           std::uint64_t run) {
        return std::string("per-device ") + what + " sum to " +
               std::to_string(devices) + ", not the run's " +
               std::to_string(run);
    };
    if (sum.commands != r.commands)
        return differ("commands", sum.commands, r.commands);
    if (sum.flashReads != r.tally.flashReads)
        return differ("flash reads", sum.flashReads, r.tally.flashReads);
    if (sum.featureBytes != r.tally.featureBytes)
        return differ("feature bytes", sum.featureBytes,
                      r.tally.featureBytes);
    const engines::CmdStats &c = r.cmdStats;
    const std::uint64_t n = c.lifetime.count();
    if (c.waitBefore.count() != n || c.flashTime.count() != n ||
        c.waitAfter.count() != n || c.lifetimeHist.summary().count() != n)
        return "command-lifetime samples differ: wait_before " +
               std::to_string(c.waitBefore.count()) + ", flash_time " +
               std::to_string(c.flashTime.count()) + ", wait_after " +
               std::to_string(c.waitAfter.count()) + ", lifetime " +
               std::to_string(n) + ", histogram " +
               std::to_string(c.lifetimeHist.summary().count());
    return {};
}

const sim::MetricRegistry &
PlatformSession::metrics() const
{
    return impl->reg;
}

RunResult
runPlatform(const PlatformConfig &platform, const RunConfig &run,
            const WorkloadBundle &bundle, sim::MetricRegistry *metrics)
{
    PlatformSession session(platform, run, bundle);

    sim::Pcg32 rng(run.targetSeed, 0xACE5);
    const graph::NodeId n_nodes = bundle.graph.numNodes();

    // Skewed target selection (cache-tier experiments): Zipf ranks
    // map to node ids directly, so low ids are the hot set. θ = 0
    // keeps the exact historical uniform draw sequence.
    std::unique_ptr<sim::ZipfSampler> zipf;
    if (run.zipfTheta > 0.0)
        zipf = std::make_unique<sim::ZipfSampler>(run.zipfTheta,
                                                  n_nodes);

    for (std::uint32_t batch = 0; batch < run.batches; ++batch) {
        std::vector<graph::NodeId> targets(run.batchSize);
        for (auto &t : targets)
            t = zipf ? static_cast<graph::NodeId>(zipf->draw(rng))
                     : rng.below(n_nodes);
        session.runBatch(session.prepFree(), targets);
    }
    RunResult res = session.finish();
    if (metrics)
        metrics->merge(session.metrics());
    return res;
}

} // namespace beacongnn::platforms
