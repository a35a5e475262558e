/**
 * @file
 * The GNN data-preparation engine: an event-driven model of one
 * mini-batch's neighbour sampling + feature retrieval, parameterized
 * by where sampling runs (host CPU / firmware cores / flash dies),
 * whether DirectGraph removes the inter-hop host barrier, and whether
 * the channel-level hardware router replaces firmware command
 * processing. All eight evaluation platforms are points in this flag
 * space (see platforms/platform.h).
 *
 * The engine is functional *and* timed: commands carry real
 * DirectGraph addresses, samplers execute on real section content
 * (or layout metadata — equivalently, see directgraph/source.h), and
 * the resulting subgraph is returned for validation and for the
 * compute-stage workload measurement.
 */

#ifndef BEACONGNN_ENGINES_GNN_ENGINE_H
#define BEACONGNN_ENGINES_GNN_ENGINE_H

#include <memory>
#include <span>

#include "directgraph/source.h"
#include "engines/command_router.h"
#include "engines/device_port.h"
#include "engines/die_sampler.h"
#include "flash/backend.h"
#include "gnn/model.h"
#include "gnn/sampler.h"
#include "gnn/subgraph.h"
#include "sim/event_queue.h"
#include "sim/parallel_sim.h"
#include "sim/stats.h"
#include "ssd/firmware.h"

namespace beacongnn::sim {
class MetricRegistry;
class TraceSink;
} // namespace beacongnn::sim

namespace beacongnn::engines {

/** Where neighbour sampling executes. */
enum class SamplingLoc : std::uint8_t
{
    Host,     ///< Host CPU (CC, GLIST): pages cross PCIe.
    Firmware, ///< SSD embedded cores (SmartSage, BG-1, BG-DG).
    Die,      ///< Die-level samplers (BG-SP, BG-DGSP, BG-2).
};

/** Feature flags selecting the data-preparation pipeline. */
struct PrepFlags
{
    SamplingLoc sampling = SamplingLoc::Firmware;
    /** DirectGraph: physical chaining, no inter-hop host barrier. */
    bool directGraph = false;
    /** Channel-level router: hardware command path (BG-2). */
    bool hwRouter = false;
    /** Feature-table pages are host-initiated block I/O that crosses
     *  PCIe, and compute runs on the discrete accelerator (CC,
     *  SmartSage); otherwise the lookup is offloaded in-SSD and
     *  compute runs on the SSD-bus accelerator (GLIST, BG-*). */
    bool featuresViaHost = false;
    /** Coalesce secondary-section hits (§V-A); off = ablation. */
    bool coalesceSecondary = true;
    /** Deduplicate repeated nodes within a mini-batch: a node whose
     *  primary section was already fetched this batch is served from
     *  SSD DRAM instead of flash (extension beyond the paper; only
     *  meaningful on the streaming platforms). */
    bool dedupeNodes = false;
    /** §VIII future-work option: direct I/O between flash and the
     *  accelerator SRAM, bypassing SSD DRAM for feature payloads
     *  (lifts the DRAM wall of Fig. 18d). */
    bool bypassDram = false;
};

/** Flash-command lifetime statistics (Fig. 17): one batch's, or the
 *  run total the platform session merges batch by batch. */
struct CmdStats
{
    sim::Accumulator waitBefore; ///< created -> sense start.
    sim::Accumulator flashTime;  ///< sense + transfer durations.
    sim::Accumulator waitAfter;  ///< queueing after flash until parsed.
    sim::Accumulator lifetime;   ///< created -> parsed.
    /** Lifetime distribution for tail percentiles (10 us buckets). */
    sim::Histogram lifetimeHist{10.0, 1024};

    /** Add one command's samples: it was created at @p created, its
     *  sense began at @p sense_start, it spent @p flash_time on the
     *  die and channel, and its result parsed at @p parsed. */
    void record(sim::Tick created, sim::Tick sense_start,
                sim::Tick flash_time, sim::Tick parsed);

    /** Exact merge of another batch's statistics. */
    void merge(const CmdStats &other);

    /** Forget every sample, keeping the histogram's storage. */
    void clear();

    /** Merge into @p reg's `engine.cmd.*` instruments. */
    void publish(sim::MetricRegistry &reg) const;
};

/** First/last activity of one hop (Fig. 16). */
struct HopSpan
{
    sim::Tick first = sim::kTickMax;
    sim::Tick last = 0;

    void
    cover(sim::Tick a, sim::Tick b)
    {
        first = std::min(first, a);
        last = std::max(last, b);
    }
};

/** Byte/operation tallies feeding the energy model: one batch's, or
 *  the run total the platform session merges batch by batch. */
struct PrepTally
{
    std::uint64_t flashReads = 0;   ///< Pages sensed.
    std::uint64_t channelBytes = 0; ///< Bytes over flash channels.
    std::uint64_t dramBytes = 0;    ///< Bytes through SSD DRAM.
    std::uint64_t pcieBytes = 0;    ///< Bytes over the host link.
    sim::Tick hostCpuBusy = 0;      ///< Host CPU time consumed.
    std::uint64_t featureBytes = 0; ///< Feature payload staged.
    std::uint64_t abortedCommands = 0; ///< §VI-E on-die aborts.

    /** Sum another batch's tallies into this one. */
    void merge(const PrepTally &other);

    /** Add into @p reg's `engine.*` counters. */
    void publish(sim::MetricRegistry &reg) const;
};

/** Result of one mini-batch data preparation. */
struct PrepResult
{
    bool ok = true;
    sim::Tick start = 0;
    sim::Tick finish = 0;
    std::vector<HopSpan> hops; ///< hops+1 entries (k samplings + feat).
    CmdStats cmdStats;
    PrepTally tally;
    gnn::Subgraph subgraph;
    std::uint64_t commands = 0;
    /** Flash reads avoided by batch-level node deduplication. */
    std::uint64_t dedupedReads = 0;
    /** Commands routed to a surviving replica because their primary
     *  device was killed (DESIGN.md §17; 0 without faults). */
    std::uint64_t replicaFallbacks = 0;
    /** Per-device tallies, one entry per device of the topology. */
    std::vector<DeviceTally> perDevice;
};

/** Observed health of one device (engine's routing-side view). */
struct DeviceHealth
{
    /** EWMA of this device's observed command latency (us; 0 until
     *  the first command completes). */
    double latencyEwmaUs = 0;
    /** Commands the EWMA has absorbed. */
    std::uint64_t samples = 0;
};

/**
 * The engine. One instance per platform run; one batch runs at a
 * time. The engine executes the same pipeline over one or many
 * devices: each command runs against the hardware of the device that
 * owns its node (per the fabric's partition table), and follow-up
 * commands whose child lives on another device cross that device's
 * P2P port as a small descriptor before continuing remotely. A single
 * SSD is simply the one-port case: the same lanes, the same command
 * epilogue and the same completion path, with an identity router.
 *
 * Execution model (DESIGN.md §13): every port carries its own
 * EventQueue (the device's local clock) and the engine keeps all
 * per-batch mutable state in per-device *lanes*, so a conservative
 * parallel driver (sim::ParallelSimulator) may run the device queues
 * of an array on concurrent worker threads. Cross-device children
 * never touch a foreign queue directly — the posting lane appends
 * each to its outbox as a ready-to-schedule event, and the driver's
 * deliver hook moves every outbox onto the destination queues between
 * windows, sources in device order. The engine drives its device
 * queues itself: run() owns the batch, seeds it, runs the queues to
 * quiescence with its own driver and merges the lanes in fixed device
 * order, which makes the results byte-identical for every worker
 * count. A barrier batch is a loop over its hops inside run() and
 * never touches a queue.
 */
class GnnEngine
{
  public:
    /** Most devices one engine drives: an array command's parent slot
     *  packs its device into 8 bits of the subgraph slot. */
    static constexpr unsigned kMaxDevices = 256;
    /** Most subgraph entries one device holds per batch: the other 24
     *  bits of the slot, one short of all ones (the root slot). */
    static constexpr std::uint32_t kSlotsPerDevice = (1u << 24) - 1;

    /**
     * @param ports    Per-device hardware (size >= 1; borrowed), each
     *                 with its own event queue — normally
     *                 platforms::DeviceContext::port(). Multi-device
     *                 topologies require a streaming (DirectGraph)
     *                 platform.
     * @param layout   DirectGraph layout (physical placement; also
     *                 used as the page map for conventional-format
     *                 platforms — see DESIGN.md §3).
     * @param g        Graph (golden adjacency).
     * @param model    GNN task config.
     * @param flags    Pipeline selection.
     * @param source   Section resolver (layout- or byte-backed).
     * @param fabric   Inter-device link parameters + ownership table.
     */
    GnnEngine(std::vector<DevicePort> ports,
              const dg::DirectGraphLayout &layout,
              const graph::Graph &g, const gnn::ModelConfig &model,
              const PrepFlags &flags, const dg::SectionSource &source,
              const FabricConfig &fabric = {});

    ~GnnEngine();

    /**
     * Run one mini-batch to completion (the SubmitBatch command):
     * schedule a streaming batch's events on the device queues from
     * @p start and drive every queue to quiescence with the engine's
     * conservative driver (one unbounded window on a single device),
     * or book a barrier batch hop by hop; merge the per-device lanes
     * in fixed device order and return the result.
     */
    PrepResult run(sim::Tick start, std::uint64_t batch_id,
                   std::span<const graph::NodeId> targets);

    /** Synchronization windows the driver has run over all streaming
     *  batches (a pure function of the event timeline, jobs-invariant). */
    std::uint64_t windows() const { return driver->windows(); }

    /**
     * Absorb the per-device trace shards into the attached sink in
     * device order (multi-device runs; no-op otherwise). Call once
     * after the last batch, before writing the trace.
     */
    void flushTraceShards();

    /**
     * Switch the engine (and every attached die sampler) to a new
     * model spec between batches. Die-sampling pipelines re-broadcast
     * the global configuration frame before the next batch, exactly
     * as on first use. Call only when no batch is in flight.
     */
    void setModel(const gnn::ModelConfig &m);

    /** Time at which the global GNN configuration finished
     *  broadcasting to every die (0 before the first batch). */
    sim::Tick configuredAt() const { return configDone; }

    /**
     * Attach a Chrome-trace sink: every subsequent flash command
     * emits a nested async lifetime span (dispatch / sense / xfer /
     * consume children) and each batch a complete span. nullptr
     * detaches.
     */
    void setTraceSink(sim::TraceSink *sink);

    /** Publish engine-level instruments (the config broadcast) into
     *  @p reg. Per-device instruments (`engine.router.*`,
     *  `engine.sampler.*`) are published by the owning DeviceContext
     *  so array runs can namespace them per device. */
    void publishMetrics(sim::MetricRegistry &reg) const;

    /** Observed health of device @p dev: the lane's latency EWMA over
     *  completed commands (runner publishes `array.devD.health.*`).
     *  Read only between batches / after the run. */
    DeviceHealth healthOf(unsigned dev) const;

  private:
    struct Batch;
    /** One barrier-pipeline visit: a node and its parent's slot. */
    struct Visit;
    /** A BG-SP secondary continuation deferred to the end of its hop. */
    struct Continuation;

    /**
     * The driver's deliver hook: move every lane's outbox onto the
     * destination queues, sources in device order and each outbox in
     * posting order. The queues pop equal timestamps in insertion
     * order, so the walk delivers in (arrival, source device, posting
     * order) order whatever the worker interleave was. Runs between
     * windows, when no station is running.
     */
    void deliverOutboxes();

    /** More than one device port? (Implies DirectGraph streaming.) */
    bool multiDevice() const { return ports.size() > 1; }

    /** Device @p dev's own event queue (its local clock). */
    sim::EventQueue &homeQueue(unsigned dev) { return *ports[dev].queue; }

    /** Trace sink device @p dev's events go to: its private shard on
     *  an array (worker threads must never share a sink), the real
     *  sink otherwise. */
    sim::TraceSink *laneTrace(unsigned dev);

    /** Seed a streaming batch: group the targets by the device that
     *  serves them and schedule one injection event per device at
     *  @p ready. */
    void seedStreaming(std::span<const graph::NodeId> targets,
                       sim::Tick ready);

    /** Merge a finished batch's per-device lanes into its result. */
    void mergeLanes(Batch &b);

    /** The primary-section command of @p node at hop @p hop
     *  (parentSlot unset): a streaming target or a BG-SP visit. */
    flash::GnnSampleParams primaryParams(graph::NodeId node,
                                         unsigned hop) const;

    /**
     * Broadcast the global GNN configuration command (§VI-C) to every
     * die once, before the first mini-batch; returns its completion.
     */
    sim::Tick broadcastConfig(sim::Tick start);

    /** Out-of-order (DirectGraph) pipeline: one command on @p dev. */
    void streamCommand(flash::GnnSampleParams params, sim::Tick ready,
                       unsigned from_channel, unsigned dev);

    /**
     * Run @p params on device @p dev's die sampler against the section
     * it addresses, into the lane's reused result frame. A section
     * naming a node past the graph is no valid section (only a
     * corrupt page yields one), so the §VI-E check aborts it.
     */
    flash::GnnSampleResult &sample(unsigned dev,
                                   const flash::GnnSampleParams &params);

    /**
     * The one command epilogue of the streaming pipeline: a dedupe
     * hit, a cache hit, a failed read and a sensed command all end
     * here. Adds @p dram_bytes and the feature payload to device
     * @p dev's lane tallies, counts a failed result (an on-die check
     * or a dead die) as an aborted command, enters the node into the
     * lane's subgraph fragment, schedules the follow-up commands at
     * @p done and covers the hop span [@p created, @p done].
     */
    void retireCommand(unsigned dev, const flash::GnnSampleParams &params,
                       flash::GnnSampleResult &result, sim::Tick created,
                       sim::Tick done, std::uint64_t dram_bytes);

    /** Schedule a follow-up command at @p parsed: locally on @p dev,
     *  or — when its node lives elsewhere — across the P2P fabric. */
    void scheduleChild(flash::GnnSampleParams child, sim::Tick parsed,
                       unsigned this_channel, unsigned dev);

    /** Primary-owner device of @p node (0 without a fabric table). */
    unsigned ownerOf(graph::NodeId node) const;

    /** Is device @p dev healthy for a routing decision at @p now
     *  (i.e. not yet killed by the fault schedule)? */
    bool healthyAt(unsigned dev, sim::Tick now) const;

    /** Sentinel of routeOn: no healthy replica survives. */
    static constexpr unsigned kNoReplica = ~0u;

    /**
     * Health- and load-aware replica choice for @p node at @p now
     * (DESIGN.md §17): among the node's fabric.replication replicas —
     * replica k lives on (primary + k) % devices — pick the
     * least-loaded healthy one by @p routed (the chooser's own
     * routed-command table), breaking ties on the lower device id.
     * A choice that leaves a dead primary adds one to @p fallbacks.
     * Returns kNoReplica when every replica is dead. With one device,
     * or with replication = 1 and no kill schedule, this is exactly
     * ownerOf — the historical routing, byte-identical; a dead single
     * device then fails at the flash read.
     */
    unsigned routeOn(std::vector<std::uint64_t> &routed,
                     graph::NodeId node, sim::Tick now,
                     std::uint64_t &fallbacks);

    /** Hop-by-hop (barrier) pipeline, single-device on lane 0: book
     *  hop @p hop of the batch's visits from @p hop_start, replace
     *  them with the next hop's (none after the last) and return its
     *  start. */
    sim::Tick runHop(unsigned hop, sim::Tick hop_start);

    /** Per-device hardware (size >= 1; all components borrowed). */
    std::vector<DevicePort> ports;
    const dg::DirectGraphLayout &layout;
    const graph::Graph &g;
    gnn::ModelConfig model;
    PrepFlags _flags;
    const dg::SectionSource &source;
    FabricConfig fabric;
    /** The batch state, kept across batches: its lanes, result frames
     *  and buffers keep their capacity, so a steady-state batch
     *  allocates nothing per command (DESIGN.md §8). */
    std::unique_ptr<Batch> batchState;
    /** The batch in flight: batchState inside run() and null again
     *  before it returns, so a use outside a batch faults. */
    Batch *batch = nullptr;
    /** Per-source-device replica routing state (DESIGN.md §17): how
     *  many commands lane `src` has routed to each destination (the
     *  "least-loaded" input). Kept per *source* lane — a shared
     *  cross-device table would make the choice depend on worker
     *  interleave. laneRouted[src][dst] is touched only by src's
     *  worker thread. */
    std::vector<std::vector<std::uint64_t>> laneRouted; // bgnlint:lane-owned
    /** Host-side routing table for batch-target seeding on an array
     *  (seedStreaming runs on the prep thread before the driver
     *  starts). */
    std::vector<std::uint64_t> hostRouted;
    /** Per-device observed-latency EWMA (array.devD.health.*): each
     *  device measures its own completions, so entry d is touched
     *  only by d's worker thread. */
    std::vector<DeviceHealth> laneHealth; // bgnlint:lane-owned
    /** Conservative driver over the device queues (DESIGN.md §13):
     *  one station per port, lookahead fabric.p2pLatency on an array
     *  and unbounded on one device. */
    std::unique_ptr<sim::ParallelSimulator> driver;
    /** Checked-build causality/ownership validator of an array
     *  (DESIGN.md §16): wired into every queue, the driver, the
     *  outbox post and streamCommand's lane touches. Owned per engine —
     *  bench grids run engines concurrently, so never a global. */
    std::unique_ptr<sim::Validator> validator;
    /** Completion time of the one-time GNN config broadcast. */
    sim::Tick configDone = 0;
    /** Opt-in command-lifetime trace (not owned). */
    sim::TraceSink *trace = nullptr;
    /** Per-device trace shards (array runs with a sink). */
    std::vector<std::unique_ptr<sim::TraceSink>> laneShards;
};

} // namespace beacongnn::engines

#endif // BEACONGNN_ENGINES_GNN_ENGINE_H
