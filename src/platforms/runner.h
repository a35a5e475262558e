/**
 * @file
 * Platform runner: executes a GNN training workload (a stream of
 * mini-batches) on one platform configuration and collects every
 * statistic the evaluation figures need — throughput, per-hop
 * timelines, command lifetimes, flash utilization traces, byte
 * tallies and the energy breakdown.
 *
 * Data preparation of mini-batch i is pipelined with the GNN
 * computation of mini-batch i-1 (§VI-D): the prep stream is serial,
 * compute jobs serialize on the accelerator, and the run ends when
 * the last compute job drains.
 *
 * The session owns its run totals as typed fields and merges each
 * batch into them; finish() derives every RunResult field from those
 * totals and the devices, then writes the metric registry once.
 */

#ifndef BEACONGNN_PLATFORMS_RUNNER_H
#define BEACONGNN_PLATFORMS_RUNNER_H

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "accel/accelerator.h"
#include "cache/vertex_cache.h"
#include "energy/energy.h"
#include "graph/dataset.h"
#include "platforms/platform.h"
#include "platforms/topology.h"
#include "sim/metrics.h"

namespace beacongnn::sim {
class TraceSink;
} // namespace beacongnn::sim

namespace beacongnn::platforms {

/**
 * A workload instantiated and laid out on flash, shared across runs.
 *
 * The `source` member references `layout` and `graph`, so the bundle
 * must not be moved or copied after construction — makeBundle()
 * returns it on the heap for that reason.
 */
struct WorkloadBundle
{
    std::string name;
    graph::Graph graph;
    graph::FeatureTable features{0};
    dg::DirectGraphLayout layout;
    std::unique_ptr<dg::LayoutSource> source;
    gnn::ModelConfig model;

    WorkloadBundle() = default;
    WorkloadBundle(const WorkloadBundle &) = delete;
    WorkloadBundle &operator=(const WorkloadBundle &) = delete;
    WorkloadBundle(WorkloadBundle &&) = delete;
    WorkloadBundle &operator=(WorkloadBundle &&) = delete;
};

/**
 * Build a workload bundle: synthesize the graph, reserve blocks and
 * compute the DirectGraph layout for the given flash geometry.
 *
 * @param spec       Workload spec (Table III).
 * @param flash_cfg  Flash geometry (page size matters for layout).
 * @param model      GNN task config (feature dim is overridden from
 *                   the spec).
 * @param node_override If nonzero, overrides spec.simNodes.
 */
std::unique_ptr<WorkloadBundle> makeBundle(
    const graph::WorkloadSpec &spec, const flash::FlashConfig &flash_cfg,
    gnn::ModelConfig model, graph::NodeId node_override = 0);

/**
 * One scheduled fault of the run: device @ref device stops serving
 * reads at tick @ref at — the whole device when @ref die is negative,
 * one die (device-local index) otherwise. A whole-device kill also
 * removes the device from the engine's replica routing; a single-die
 * kill only fails the reads that land on that die.
 */
struct KillEvent
{
    unsigned device = 0;
    int die = -1; ///< Device-local die index; -1 = whole device.
    sim::Tick at = 0;
};

/**
 * Parse one kill spec: "DEV@US" kills a whole device, "DEV.DIE@US"
 * one die, at US microseconds (the CLIs' --die-kill). Plain decimal
 * digits only; nullopt on malformed input or on a device, die or time
 * that does not fit its field (a die is never read as -1, the whole-
 * device sentinel).
 */
std::optional<KillEvent> parseKillEvent(std::string_view spec);

/** Run parameters. */
struct RunConfig
{
    ssd::SystemConfig system{};
    std::uint32_t batchSize = 64;
    std::uint32_t batches = 4;
    std::uint64_t targetSeed = 0xF00D;
    bool traceUtilization = false;
    std::size_t utilizationBuckets = 48;
    /** Opt-in Chrome-trace sink recording command lifetimes and flash
     *  operations (not owned; nullptr = no tracing). */
    sim::TraceSink *traceSink = nullptr;
    /** Scale-out topology (§VIII). The default single device runs the
     *  plain platform; devices > 1 shards the graph across an array
     *  of identical SSDs (streaming platforms only). */
    TopologyConfig topology{};
    /** Device-DRAM vertex/feature cache tier, per device (DESIGN.md
     *  §14). Disabled by default — capacityMB = 0 builds no cache and
     *  stays byte-identical to the historical cache-less runs. */
    cache::CacheConfig cache{};
    /** Zipf(θ) skew of runPlatform's target draws; 0 (default) keeps
     *  the historical uniform stream. Hot set = low node ids. */
    double zipfTheta = 0.0;
    /** Model override: run this spec instead of the bundle's (the
     *  bundle layout stays feature-dim compatible). nullopt (default)
     *  runs the bundle model — the historical behaviour. */
    std::optional<gnn::ModelSpec> model;
    /** Fault schedule (DESIGN.md §17): die/device kills applied to the
     *  flash backends and the replica router. Empty (default) runs the
     *  historical fault-free simulation, byte-identically. */
    std::vector<KillEvent> kills{};
};

/** Everything measured in one run. */
struct RunResult
{
    std::string platform;
    std::string workload;
    bool ok = true;

    std::uint64_t targets = 0;
    sim::Tick prepTime = 0;     ///< Last prep finish.
    sim::Tick totalTime = 0;    ///< Last compute drain.
    double throughput = 0;      ///< Targets per second.

    engines::CmdStats cmdStats; ///< Merged over batches (Fig. 17).
    engines::PrepTally tally;   ///< Summed over batches.
    std::vector<engines::HopSpan> hops; ///< Last batch (Fig. 16).
    sim::Tick lastBatchStart = 0;

    // Resource busy shares over the whole run (Fig. 15f inputs).
    double dieUtil = 0;
    double channelUtil = 0;
    double coreUtil = 0;
    double dramUtil = 0;
    double pcieUtil = 0;
    sim::Tick accelBusy = 0;

    // Active-unit series over time (Fig. 15a-e; empty unless traced).
    std::vector<double> dieSeries;
    std::vector<double> channelSeries;

    energy::EnergyBreakdown energy;
    double avgPowerW = 0;

    gnn::Subgraph lastSubgraph; ///< For functional validation.

    // Scale-out array view (degenerate for a single-device run).
    unsigned devices = 1;          ///< Devices of the topology.
    std::uint64_t commands = 0;    ///< Flash commands executed.
    std::uint64_t crossDevice = 0; ///< Commands that crossed P2P links.
    /** crossDevice over every issued command: `commands` plus the
     *  streaming dedupe and cache hits; 0 when none was issued. */
    double crossFraction = 0;
    /** Per-device command/byte tallies (devices entries). */
    std::vector<engines::DeviceTally> perDevice;

    // Fault-injection view (DESIGN.md §17; defaults without faults).
    unsigned replication = 1;      ///< Effective replication factor.
    /** The applied kill schedule (empty = fault-free run). */
    std::vector<KillEvent> faults;
    /** Commands served by a surviving replica because their primary
     *  device was killed. */
    std::uint64_t replicaFallbacks = 0;
    /** Any device/die down this run? */
    bool degraded() const { return !faults.empty(); }
};

/**
 * Conservation audit over a run's typed totals: the per-device
 * commands, flash reads and feature bytes sum to the run's, and the
 * four command-lifetime accumulators and the lifetime histogram count
 * the same samples. Checked builds run it at the end of every
 * PlatformSession::finish(). @return The first rule @p r breaks, or
 * an empty string.
 */
std::string auditTotals(const RunResult &r);

/** Timing of one mini-batch's trip through the platform pipeline. */
struct BatchService
{
    bool ok = true;
    sim::Tick prepStart = 0;    ///< When data preparation began.
    sim::Tick prepFinish = 0;   ///< Prep stream free for the next batch.
    sim::Tick computeStart = 0; ///< Accelerator grant start.
    sim::Tick computeEnd = 0;   ///< Result available to the caller.
};

/**
 * An instantiated platform held open across mini-batches: the full
 * component tree (event queue, flash backend, firmware, accelerator,
 * GNN engine) of one run, exposing per-batch execution so callers
 * can feed batches one at a time and observe each batch's service
 * timing. runPlatform() drives it over a fixed offline grid; the
 * online serving layer (src/serve) drives it from a micro-batching
 * scheduler.
 *
 * Batches are prepared serially — the prep stream is a single
 * pipeline — and compute of batch i overlaps prep of batch i+1
 * exactly as in §VI-D. All cross-batch statistics accumulate inside
 * the session as typed totals; finish() folds them into a RunResult.
 */
class PlatformSession
{
  public:
    PlatformSession(const PlatformConfig &platform, const RunConfig &run,
                    const WorkloadBundle &bundle);
    ~PlatformSession();
    PlatformSession(const PlatformSession &) = delete;
    PlatformSession &operator=(const PlatformSession &) = delete;

    /** Earliest tick the (serial) prep stream accepts a new batch. */
    sim::Tick prepFree() const;

    /** Run one mini-batch whose prep starts at or after @p ready. */
    BatchService runBatch(sim::Tick ready,
                          std::span<const graph::NodeId> targets);

    /**
     * Run one mini-batch under @p model, switching the engine (and
     * re-broadcasting the die configuration) when it differs from the
     * previous batch's spec — the serving layer's per-request model
     * selection. The spec must keep the bundle's feature dimension.
     */
    BatchService runBatch(sim::Tick ready,
                          std::span<const graph::NodeId> targets,
                          const gnn::ModelSpec &model);

    /** Fold the accumulated statistics into a RunResult. */
    RunResult finish();

    /**
     * The session's metric registry: empty until finish(), which
     * publishes every component's instruments and the run totals
     * into it once. RunResult carries the same totals as typed
     * fields; the session never reads the registry back.
     */
    const sim::MetricRegistry &metrics() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Execute @p batches mini-batches of @p batchSize targets.
 * @param metrics When non-null, receives a merged copy of the
 *                session's full instrument registry.
 */
RunResult runPlatform(const PlatformConfig &platform,
                      const RunConfig &run, const WorkloadBundle &bundle,
                      sim::MetricRegistry *metrics = nullptr);

} // namespace beacongnn::platforms

#endif // BEACONGNN_PLATFORMS_RUNNER_H
