#include "engines/gnn_engine.h"

#include <algorithm>
#include <optional>
#include <string>

#include "cache/vertex_cache.h"
#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace beacongnn::engines {

// ====================================================================
// CmdStats / PrepTally aggregation.
// ====================================================================

void
CmdStats::record(sim::Tick created, sim::Tick sense_start,
                 sim::Tick flash_time, sim::Tick parsed)
{
    const sim::Tick wait_before = sense_start - created;
    waitBefore.add(sim::toMicros(wait_before));
    flashTime.add(sim::toMicros(flash_time));
    waitAfter.add(
        sim::toMicros(parsed - created - wait_before - flash_time));
    lifetime.add(sim::toMicros(parsed - created));
    lifetimeHist.add(sim::toMicros(parsed - created));
}

void
CmdStats::merge(const CmdStats &other)
{
    waitBefore.merge(other.waitBefore);
    flashTime.merge(other.flashTime);
    waitAfter.merge(other.waitAfter);
    lifetime.merge(other.lifetime);
    lifetimeHist.merge(other.lifetimeHist);
}

void
CmdStats::clear()
{
    waitBefore.clear();
    flashTime.clear();
    waitAfter.clear();
    lifetime.clear();
    lifetimeHist.clear();
}

void
CmdStats::publish(sim::MetricRegistry &reg) const
{
    reg.accum("engine.cmd.wait_before_us").merge(waitBefore);
    reg.accum("engine.cmd.flash_time_us").merge(flashTime);
    reg.accum("engine.cmd.wait_after_us").merge(waitAfter);
    reg.accum("engine.cmd.lifetime_us").merge(lifetime);
    reg.histogram("engine.cmd.lifetime_us_hist", lifetimeHist.bucketWidth(),
                  lifetimeHist.buckets().size())
        .merge(lifetimeHist);
}

void
PrepTally::merge(const PrepTally &other)
{
    flashReads += other.flashReads;
    channelBytes += other.channelBytes;
    dramBytes += other.dramBytes;
    pcieBytes += other.pcieBytes;
    hostCpuBusy += other.hostCpuBusy;
    featureBytes += other.featureBytes;
    abortedCommands += other.abortedCommands;
}

void
PrepTally::publish(sim::MetricRegistry &reg) const
{
    reg.counter("engine.flash_reads").add(flashReads);
    reg.counter("engine.channel_bytes").add(channelBytes);
    reg.counter("engine.dram_bytes").add(dramBytes);
    reg.counter("engine.pcie_bytes").add(pcieBytes);
    reg.counter("engine.host_cpu_busy_ticks").add(hostCpuBusy);
    reg.counter("engine.feature_bytes").add(featureBytes);
    reg.counter("engine.aborted_commands").add(abortedCommands);
}

namespace {

/** Slot value used in command metadata for "no parent" (targets). */
constexpr std::uint32_t kRootSlot = gnn::kNoParent;

/** Descriptor bytes a cross-device follow-up sends over the P2P link. */
constexpr std::uint32_t kP2pCommandBytes = 16;

// On an array, a command's parentSlot crosses the fabric, so it must
// name a subgraph entry globally: (device << 24) | lane-local index.
// Device 0's packing is the identity, kRootSlot (all ones) is never a
// legal packed value (the lane-local space stops one short), and the
// constructor rejects topologies beyond the 8 device bits.
constexpr unsigned kSlotBits = 24;
constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
static_assert(GnnEngine::kMaxDevices == 1u << (32 - kSlotBits));
static_assert(GnnEngine::kSlotsPerDevice == kSlotMask);

std::uint32_t
packSlot(unsigned dev, std::uint32_t local)
{
    return (static_cast<std::uint32_t>(dev) << kSlotBits) | local;
}

unsigned
packedDev(std::uint32_t slot)
{
    return slot >> kSlotBits;
}

std::uint32_t
packedLocal(std::uint32_t slot)
{
    return slot & kSlotMask;
}

/**
 * One flash command's nestable async trace span (Perfetto: a `cmd`
 * slice with dispatch / sense / xfer / consume children), the same on
 * both pipelines. Without a sink each step is one pointer test.
 */
struct CmdSpan
{
    sim::TraceSink *tr;
    std::uint64_t id = 0;

    /** Open the span at @p created with its dispatch leg @p leg, which
     *  ended at @p dispatched. */
    CmdSpan(sim::TraceSink *sink, sim::Tick created, const char *leg,
            sim::Tick dispatched)
        : tr(sink)
    {
        if (!tr)
            return;
        id = tr->nextId();
        tr->beginAsync("cmd", "cmd", id, created);
        child(leg, created, dispatched);
    }

    /** The child @p name over [@p from, @p to]. */
    void
    child(const char *name, sim::Tick from, sim::Tick to) const
    {
        if (!tr)
            return;
        tr->beginAsync(name, "cmd", id, from);
        tr->endAsync(name, "cmd", id, to);
    }

    /** Close the span at @p at. */
    void
    end(sim::Tick at) const
    {
        if (tr)
            tr->endAsync("cmd", "cmd", id, at);
    }
};

} // namespace

/** One barrier-pipeline visit: a node and its parent's slot. */
struct GnnEngine::Visit
{
    graph::NodeId node;
    gnn::Slot parent;
};

/** A BG-SP secondary continuation: ready when its primary's frame
 *  parses, issued after the hop's visits in ready-time order. */
struct GnnEngine::Continuation
{
    sim::Tick ready;
    flash::GnnSampleParams params;
    gnn::Slot slot;
};

/**
 * Per-mini-batch state. The engine keeps one across batches and
 * begin() resets it: every vector keeps its capacity, so a steady-state
 * batch allocates only its result (DESIGN.md §8).
 */
struct GnnEngine::Batch
{
    std::uint64_t id = 0;
    /** Batches begun so far: this batch's dedupe stamp (the caller's
     *  batch id need not be unique). */
    std::uint64_t stamp = 0;
    PrepResult res;

    /**
     * All mutable per-batch state a device touches while its queue
     * runs (on a worker thread, on an array). One lane per device;
     * run() merges them into `res` in device order, so
     * the merged result is a pure function of the lane contents —
     * independent of the worker count.
     */
    struct Lane
    {
        CmdStats cmdStats;
        PrepTally tally;
        /** Commands and P2P forwards; the flash reads and feature
         *  payload are counted once, in `tally`. */
        DeviceTally device;
        std::vector<HopSpan> hops;
        std::uint64_t dedupedReads = 0;
        std::uint64_t replicaFallbacks = 0;
        bool ok = true;
        sim::Tick finishMax = 0;
        /** This device's subgraph fragment (parents packed). */
        struct Entry
        {
            graph::NodeId node;
            std::uint8_t hop;
            gnn::Slot parent;
        };
        std::vector<Entry> frag;
        /** Streaming dedupe stamp of one node's primary section on
         *  this device: the batch that last fetched it and when its
         *  data became available — SSD DRAM does not span the fabric.
         *  A stamp of an older batch is stale, so a batch clears
         *  nothing. */
        struct Fetched
        {
            std::uint64_t batch = ~std::uint64_t{0};
            sim::Tick at = 0;
        };
        /** Dedupe stamps indexed by node, sized on first use. */
        std::vector<Fetched> fetched;
        /** The die sampler's result frame, rewritten per command. */
        flash::GnnSampleResult result;
        /** This device's batch targets, in submission order. */
        std::vector<graph::NodeId> targets;
        /** One cross-device child: its destination device and the
         *  event that runs it there. */
        struct Post
        {
            unsigned dst;
            sim::EventQueue::TimedEvent ev;
        };
        /** The children this device posted this window, in posting
         *  order; the deliver hook empties it. */
        std::vector<Post> outbox;
        /** The deliver hook's buffer of the children bound for this
         *  device, which bulkScheduleAt leaves empty. */
        std::vector<sim::EventQueue::TimedEvent> inbox;

        Lane() { result.follow.reserve(gnn::kMaxDraws); }

        /** Empty the lane for a batch of @p spans hop spans. The
         *  outbox and the inbox are empty between batches already. */
        void
        reset(std::size_t spans)
        {
            cmdStats.clear();
            tally = {};
            device = {};
            hops.assign(spans, HopSpan{});
            dedupedReads = 0;
            replicaFallbacks = 0;
            ok = true;
            finishMax = 0;
            frag.clear();
            targets.clear();
        }

        /** Append a node to this device's fragment; returns its
         *  packed slot (device 0's packing is the plain index). */
        gnn::Slot
        add(unsigned dev, graph::NodeId node, std::uint8_t hop,
            gnn::Slot parent)
        {
            if (frag.size() >= kSlotsPerDevice)
                sim::fatal("GnnEngine: device subgraph fragment "
                           "overflows the packed slot space");
            frag.push_back({node, hop, parent});
            return packSlot(dev, static_cast<gnn::Slot>(frag.size() - 1));
        }

        /** The dedupe stamp of the primary section at @p a, or null
         *  when the layout places no primary there (a corrupt
         *  command address). */
        Fetched *
        fetchedAt(const dg::DirectGraphLayout &layout, dg::DgAddress a)
        {
            const dg::SectionPlacement *sp = layout.directory.find(a);
            if (!sp || sp->type != dg::SectionType::Primary)
                return nullptr;
            if (fetched.empty())
                fetched.resize(layout.nodes.size());
            return &fetched[sp->node];
        }

        /** A command aborted (a failed on-die check, a dead die or a
         *  lost follow-up): count it and fail the batch. */
        void
        abort()
        {
            ++tally.abortedCommands;
            ok = false;
        }

        /** The sensed read of a command on either pipeline: a read
         *  on a dead die (t.failed, for the caller to retire) ends
         *  @p span; a sensed one counts its flash read and bytes. */
        flash::FlashOpTiming
        sense(flash::FlashBackend &backend, const CmdSpan &span,
              sim::Tick dispatched, flash::Ppa ppa, std::uint32_t bytes,
              sim::Tick on_die)
        {
            const flash::FlashOpTiming t =
                backend.read(dispatched, ppa, bytes, on_die);
            ++device.commands;
            if (t.failed) {
                span.end(t.xferEnd);
                return t;
            }
            ++tally.flashReads;
            tally.channelBytes += bytes;
            span.child("sense", t.senseStart, t.senseEnd);
            span.child("xfer", t.xferStart, t.xferEnd);
            return t;
        }
    };
    std::vector<Lane> lanes;
    /** Host-side submit-complete time (the finish floor). */
    sim::Tick readyAt = 0;

    // Barrier-pipeline buffers (lane 0's hops); runHop leaves them
    // empty after the last hop.
    /** This hop's visits and the next hop's, as runHop collects them. */
    std::vector<Visit> visits;
    std::vector<Visit> nextVisits;
    /** One visit's neighbour-list pages. */
    std::vector<flash::Ppa> pages;
    /** The hop's deferred BG-SP continuations. */
    std::vector<Continuation> continuations;
    /** mergeLanes' per-device map from lane slot to subgraph slot. */
    std::vector<std::vector<gnn::Slot>> globalOf;

    /** Start batch @p batch_id at @p start over @p devices lanes of
     *  @p spans hop spans each. */
    void
    begin(std::uint64_t batch_id, sim::Tick start, std::size_t spans,
          std::size_t devices)
    {
        id = batch_id;
        ++stamp;
        res = PrepResult{};
        res.start = start;
        res.hops.resize(spans);
        res.perDevice.resize(devices);
        readyAt = 0;
        lanes.resize(devices);
        // Resetting every lane happens on the prep thread before any
        // device queue runs; no lane is live yet. bgnlint:allow(BGN007)
        for (Lane &l : lanes)
            l.reset(spans);
    }
};

GnnEngine::GnnEngine(std::vector<DevicePort> ports_,
                     const dg::DirectGraphLayout &layout_,
                     const graph::Graph &graph_,
                     const gnn::ModelConfig &model_,
                     const PrepFlags &flags,
                     const dg::SectionSource &source_,
                     const FabricConfig &fabric_)
    : ports(std::move(ports_)), layout(layout_), g(graph_), model(model_),
      _flags(flags), source(source_), fabric(fabric_),
      batchState(std::make_unique<Batch>())
{
    if (ports.empty())
        sim::fatal("GnnEngine: no device ports");
    for (const DevicePort &p : ports) {
        if (!p.backend || !p.fw || !p.sampler || !p.queue)
            sim::fatal("GnnEngine: incomplete device port");
        if (_flags.hwRouter && !p.router)
            sim::fatal("GnnEngine: hwRouter platform without a router");
    }
    if (multiDevice()) {
        if (!_flags.directGraph)
            sim::fatal("GnnEngine: multi-device arrays require a "
                       "streaming (DirectGraph) platform");
        if (ports.size() > kMaxDevices)
            sim::fatal("GnnEngine: too many devices for packed "
                       "subgraph slots");
        for (const DevicePort &p : ports) {
            if (!p.p2pOut)
                sim::fatal("GnnEngine: array port without a P2P link");
        }
        if (!fabric.owner || fabric.owner->size() < g.numNodes())
            sim::fatal("GnnEngine: array without an ownership table");
        laneRouted.assign(ports.size(),
                          std::vector<std::uint64_t>(ports.size(), 0));
        hostRouted.assign(ports.size(), 0);
    }
    laneHealth.assign(ports.size(), DeviceHealth{});

    // One station per device queue. Cross-device work arrives no
    // sooner than one P2P hop, the lookahead of an array; one device
    // crosses no fabric, so its one window is unbounded.
    std::vector<sim::EventQueue *> stations;
    stations.reserve(ports.size());
    for (const DevicePort &p : ports)
        stations.push_back(p.queue);
    const sim::Tick lookahead =
        multiDevice() ? fabric.p2pLatency : sim::kTickMax;
    driver = std::make_unique<sim::ParallelSimulator>(
        std::move(stations), lookahead, [this] { deliverOutboxes(); });
    if (sim::kCheckedBuild && multiDevice()) {
        validator = std::make_unique<sim::Validator>(ports.size(),
                                                     fabric.p2pLatency);
        for (unsigned d = 0; d < ports.size(); ++d)
            ports[d].queue->setValidator(validator.get(), d);
        driver->setValidator(validator.get());
    }
}

GnnEngine::~GnnEngine() = default;

sim::TraceSink *
GnnEngine::laneTrace(unsigned dev)
{
    return laneShards.empty() ? trace : laneShards[dev].get();
}

unsigned
GnnEngine::ownerOf(graph::NodeId node) const
{
    if (!fabric.owner || fabric.owner->empty())
        return 0;
    return (*fabric.owner)[node];
}

bool
GnnEngine::healthyAt(unsigned dev, sim::Tick now) const
{
    if (!fabric.deviceKillAt || dev >= fabric.deviceKillAt->size())
        return true;
    return now < (*fabric.deviceKillAt)[dev];
}

unsigned
GnnEngine::routeOn(std::vector<std::uint64_t> &routed,
                   graph::NodeId node, sim::Tick now,
                   std::uint64_t &fallbacks)
{
    const unsigned prim = ownerOf(node);
    const unsigned ndev = static_cast<unsigned>(ports.size());
    // One device has no replica to choose: a dead single device fails
    // at the flash read, not here. R = 1 without a kill schedule is
    // the historical single-owner routing, untouched.
    if (ndev == 1 || (fabric.replication == 1 && !fabric.deviceKillAt))
        return prim;
    unsigned best = kNoReplica;
    for (unsigned k = 0; k < fabric.replication; ++k) {
        const unsigned d = (prim + k) % ndev;
        if (!healthyAt(d, now))
            continue;
        if (best == kNoReplica || routed[d] < routed[best] ||
            (routed[d] == routed[best] && d < best))
            best = d;
    }
    if (best == kNoReplica)
        return kNoReplica;
    ++routed[best];
    if (best != prim && !healthyAt(prim, now))
        ++fallbacks;
    return best;
}

DeviceHealth
GnnEngine::healthOf(unsigned dev) const
{
    if (dev >= laneHealth.size())
        return {};
    return laneHealth[dev];
}

PrepResult
GnnEngine::run(sim::Tick start, std::uint64_t batch_id,
               std::span<const graph::NodeId> targets)
{
    batch = batchState.get();
    Batch &b = *batch;
    b.begin(batch_id, start, model.hops + 1u, ports.size());

    const auto &host = ports[0].fw->config().host;
    // Before the first batch, the firmware broadcasts the global GNN
    // configuration command (hops, fanout, feature length; §VI-C) to
    // every die over the channels.
    start = std::max(start, broadcastConfig(start));
    // The host assembles the mini-batch and submits target addresses
    // (DirectGraph: primary-section addresses; conventional: LPAs)
    // through one customized NVMe command.
    sim::Tick ready = start + host.batchOverhead + host.nvmeRoundTrip +
                      host.translatePerNode * targets.size();
    b.res.tally.hostCpuBusy += host.translatePerNode * targets.size();
    b.readyAt = ready;

    if (_flags.directGraph) {
        seedStreaming(targets, ready);
        // Every queue runs to quiescence; the worker count (--jobs /
        // BGN_JOBS) never changes the result.
        driver->run();
    } else {
        // The barrier pipeline is single-device (the constructor
        // rejects arrays of non-streaming platforms) and books each
        // hop whole, so it needs no event queue.
        for (graph::NodeId t : targets)
            b.visits.push_back({t, kRootSlot});
        sim::Tick hop_start = ready;
        for (unsigned hop = 0; !b.visits.empty(); ++hop)
            hop_start = runHop(hop, hop_start);
    }
    mergeLanes(b);
    if (trace) {
        trace->complete("batch", "batch", flash::kTraceEnginePid,
                        static_cast<std::uint32_t>(b.id), b.res.start,
                        b.res.finish);
    }
    PrepResult res = std::move(b.res);
    batch = nullptr;
    return res;
}

void
GnnEngine::seedStreaming(std::span<const graph::NodeId> targets,
                         sim::Tick ready)
{
    // The host links to every array member: each device's targets are
    // injected at that device's frontend, preserving the submission
    // order within a device; their first hop is always a crossbar
    // traversal. Each target goes to the least-loaded healthy replica
    // of its node (the host's own routed table — this runs on the
    // prep thread before any device queue runs).
    PrepResult &res = batch->res;
    for (graph::NodeId node : targets) {
        const unsigned dev =
            routeOn(hostRouted, node, ready, res.replicaFallbacks);
        if (dev == kNoReplica) {
            // Every replica of this target is dead: the submission
            // fails host-side before any command is injected.
            ++res.tally.abortedCommands;
            res.ok = false;
            continue;
        }
        batch->lanes[dev].targets.push_back(node);
    }
    for (unsigned dev = 0; dev < ports.size(); ++dev) {
        if (batch->lanes[dev].targets.empty())
            continue;
        // Seeding the device's own queue before the driver starts —
        // no station is running yet, so this direct schedule is safe.
        // bgnlint:allow(BGN006)
        ports[dev].queue->scheduleAt(
            ready, [this, dev] {
                sim::Tick now = homeQueue(dev).now();
                for (graph::NodeId node : batch->lanes[dev].targets) {
                    flash::GnnSampleParams p = primaryParams(node, 0);
                    streamCommand(
                        p, now,
                        ports[dev].backend->codec().channelOf(p.ppa),
                        dev);
                }
            });
    }
}

void
GnnEngine::deliverOutboxes()
{
    // Sources in device order, each outbox in posting order: every
    // destination queue receives the round's children in that order
    // and pops equal timestamps in insertion order, so it runs them in
    // (arrival, source device, posting order) order whatever the
    // worker interleave was. The deliver hook runs between windows,
    // when the driver is quiescent, so it may touch every lane.
    // bgnlint:allow(BGN007)
    for (Batch::Lane &src : batch->lanes) {
        for (Batch::Lane::Post &p : src.outbox) {
            // Quiescent as above, so the destination lane's inbox may
            // fill from here. bgnlint:allow(BGN007)
            batch->lanes[p.dst].inbox.push_back(std::move(p.ev));
        }
        src.outbox.clear();
    }
    for (unsigned dev = 0; dev < ports.size(); ++dev) {
        // Between windows no station runs, so scheduling onto every
        // device's queue is safe. bgnlint:allow(BGN006)
        ports[dev].queue->bulkScheduleAt(batch->lanes[dev].inbox);
    }
}

void
GnnEngine::mergeLanes(Batch &b)
{
    const std::size_t ndev = b.lanes.size();
    sim::Tick finish = b.readyAt;
    unsigned max_hop = 0;
    std::size_t entries = 0;
    for (std::size_t d = 0; d < ndev; ++d) {
        const Batch::Lane &l = b.lanes[d];
        b.res.cmdStats.merge(l.cmdStats);
        b.res.tally.merge(l.tally);
        DeviceTally &dt = b.res.perDevice[d];
        dt.merge(l.device);
        dt.flashReads += l.tally.flashReads;
        dt.featureBytes += l.tally.featureBytes;
        b.res.commands += l.device.commands;
        b.res.dedupedReads += l.dedupedReads;
        b.res.replicaFallbacks += l.replicaFallbacks;
        if (!l.ok)
            b.res.ok = false;
        for (std::size_t h = 0;
             h < b.res.hops.size() && h < l.hops.size(); ++h)
            b.res.hops[h].cover(l.hops[h].first, l.hops[h].last);
        finish = std::max(finish, l.finishMax);
        for (const Batch::Lane::Entry &e : l.frag)
            max_hop = std::max<unsigned>(max_hop, e.hop);
        entries += l.frag.size();
    }
    b.res.finish = finish;
    b.res.subgraph.reserve(entries);
    if (ndev == 1) {
        // A single lane's fragment is already parent-before-child in
        // creation order, and device 0's packed slots are the plain
        // indices: it is the subgraph as is.
        for (const Batch::Lane::Entry &e : b.lanes[0].frag)
            b.res.subgraph.add(e.node, e.hop, e.parent);
        return;
    }
    // Subgraph merge in hop-major (hop, device, lane order): a child's
    // parent always sits at a strictly lower hop, so its global slot
    // exists before the child is added — and the order is a pure
    // function of the per-device fragments, hence worker-invariant.
    std::vector<std::vector<gnn::Slot>> &global_of = b.globalOf;
    global_of.resize(ndev);
    for (std::size_t d = 0; d < ndev; ++d)
        global_of[d].assign(b.lanes[d].frag.size(), gnn::kNoParent);
    for (unsigned hop = 0; hop <= max_hop; ++hop) {
        for (std::size_t d = 0; d < ndev; ++d) {
            const Batch::Lane &l = b.lanes[d];
            for (std::size_t i = 0; i < l.frag.size(); ++i) {
                const Batch::Lane::Entry &e = l.frag[i];
                if (e.hop != hop)
                    continue;
                gnn::Slot parent = gnn::kNoParent;
                if (e.parent != gnn::kNoParent) {
                    unsigned pd = packedDev(e.parent);
                    std::uint32_t pl = packedLocal(e.parent);
                    if (pd >= ndev || pl >= global_of[pd].size() ||
                        global_of[pd][pl] == gnn::kNoParent)
                        sim::fatal("GnnEngine: dangling parent slot "
                                   "in lane merge");
                    parent = global_of[pd][pl];
                }
                global_of[d][i] =
                    b.res.subgraph.add(e.node, e.hop, parent);
            }
        }
    }
}

void
GnnEngine::setTraceSink(sim::TraceSink *sink)
{
    trace = sink;
    laneShards.clear();
    if (trace && multiDevice()) {
        // Worker threads must never share a sink: each device records
        // into its own shard, absorbed in device order afterwards.
        laneShards.resize(ports.size());
        // Trace-sink configuration seam: runs between batches while
        // the driver is quiescent. bgnlint:allow(BGN007)
        for (auto &s : laneShards)
            s = std::make_unique<sim::TraceSink>();
    }
    if (trace) {
        trace->setProcessName(flash::kTraceEnginePid, "engine");
        for (std::size_t d = 0; d < ports.size(); ++d) {
            std::string name =
                ports.size() > 1
                    ? "dev" + std::to_string(d) + " ssd dram"
                    : std::string("ssd dram");
            trace->setProcessName(
                ports[d].tracePidBase + flash::kTraceDramPid, name);
        }
    }
}

void
GnnEngine::flushTraceShards()
{
    if (!trace)
        return;
    // Merge seam: absorbs each device's shard in fixed device order
    // after the driver has quiesced. bgnlint:allow(BGN007)
    for (auto &s : laneShards) {
        if (!s)
            continue;
        trace->absorb(*s);
        s = std::make_unique<sim::TraceSink>();
    }
}

void
GnnEngine::publishMetrics(sim::MetricRegistry &reg) const
{
    // Per-device instruments (engine.sampler.*, engine.router.*) are
    // published by the owning DeviceContext, and the replica-fallback
    // count by the session that sums PrepResult::replicaFallbacks;
    // only the engine-global broadcast time lives here.
    reg.gauge("engine.config_broadcast_ticks")
        .set(static_cast<double>(configDone));
}

sim::Tick
GnnEngine::broadcastConfig(sim::Tick start)
{
    if (configDone != 0 || _flags.sampling != SamplingLoc::Die)
        return configDone;
    // One GNN-configuration command per die: command cycles plus the
    // parameter frame (Fig. 13) over the channel; dies on different
    // channels configure in parallel, dies on one channel serialize.
    // Every device of an array broadcasts concurrently, and the
    // devices are identical, so one device's completion is the array's.
    const auto &cfg = ports[0].backend->config();
    // hops/fanout/dim/seed parameters; a non-uniform fanout schedule
    // appends one byte per hop to the frame.
    const std::uint32_t frame =
        16 + (model.uniformFanout() ? 0u : std::uint32_t{model.hops});
    sim::Tick done = start;
    for (unsigned ch = 0; ch < cfg.channels; ++ch) {
        sim::Tick t = start;
        for (unsigned d = 0; d < cfg.diesPerChannel; ++d) {
            t += cfg.commandOverhead + cfg.channelTime(frame);
        }
        done = std::max(done, t);
    }
    configDone = done;
    return configDone;
}

void
GnnEngine::setModel(const gnn::ModelConfig &m)
{
    if (m == model)
        return;
    model = m;
    const flash::GnnGlobalConfig cfg = gnnGlobalConfig(m);
    // Model swap is a between-batch reconfiguration seam; every
    // lane's sampler takes the same config. bgnlint:allow(BGN007)
    for (DevicePort &p : ports)
        if (p.sampler)
            p.sampler->setGnnConfig(cfg);
    // The dies must learn the new parameters: re-arm the config
    // broadcast so the next batch pays it again.
    configDone = 0;
}

// ====================================================================
// Streaming (DirectGraph) pipeline: BG-DG, BG-DGSP, BG-2.
// ====================================================================

flash::GnnSampleParams
GnnEngine::primaryParams(graph::NodeId node, unsigned hop) const
{
    flash::GnnSampleParams p;
    dg::DgAddress a = layout.primaryOf(node);
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.hop = static_cast<std::uint8_t>(hop);
    p.batchId = static_cast<std::uint32_t>(batch->id);
    p.parentSlot = kRootSlot;
    p.retrieveFeature = true;
    if (hop >= model.hops) {
        p.finalHop = true;
        p.sampleCount = 0;
    } else {
        p.sampleCount = model.fanoutAt(hop);
    }
    p.nodeHint = node;
    return p;
}

void
GnnEngine::streamCommand(flash::GnnSampleParams params, sim::Tick ready,
                         unsigned from_channel, unsigned dev)
{
    if constexpr (sim::kCheckedBuild) {
        // Every stream entry is a touch of this device's lane: the
        // executing thread must own station `dev` for the window.
        if (validator)
            validator->onTouch(dev, "streamCommand");
    }
    DevicePort &port = ports[dev];
    flash::FlashBackend &backend = *port.backend;
    ssd::Firmware &fw = *port.fw;
    const DieSampler &sampler = *port.sampler;
    CommandRouter *router = port.router;
    Batch::Lane &lane = batch->lanes[dev];
    sim::TraceSink *tr = laneTrace(dev);
    const sim::Tick created = ready;
    const dg::DgAddress self_addr(params.ppa, params.sectionIndex);

    // ---- Short DRAM path: dedupe and cache hits ---------------------
    // A primary section this batch already fetched on this device
    // (batch-level deduplication, an extension), or a section resident
    // in the device's vertex cache (DESIGN.md §14), is re-served from
    // SSD DRAM at max(ready, available): the sampler logic still runs
    // (fresh draws per instance), but no flash sense is issued at all.
    // Cache misses fall through to the sense path below and fill the
    // cache once the frame parses. The stamps and the cache are per
    // device and touched only from its lane, so array runs stay
    // byte-identical for any worker count.
    std::optional<sim::Tick> available;
    Batch::Lane::Fetched *stamp =
        _flags.dedupeNodes && !params.isSecondary
            ? lane.fetchedAt(layout, self_addr)
            : nullptr;
    const bool deduped = stamp && stamp->batch == batch->stamp;
    if (deduped)
        available = stamp->at;
    if (!available && port.cache)
        available = port.cache->lookup(self_addr.raw);
    if (available) {
        flash::GnnSampleResult &result = sample(dev, params);
        const std::uint32_t frame = result.frameBytes();
        const sim::Tick parsed =
            fw.dram().acquire(std::max(ready, *available), frame).end;
        if (deduped) {
            ++lane.dedupedReads;
        } else if (tr) {
            tr->complete("cache-hit", "cache",
                         port.tracePidBase + flash::kTraceDramPid, 0,
                         created, parsed);
        }
        retireCommand(dev, params, result, created, parsed, frame);
        return;
    }

    // ---- Dispatch: hardware router vs firmware core ----------------
    sim::Tick dispatched;
    if (_flags.hwRouter) {
        // Crossbar forward into the destination channel's per-die
        // dispatch queue; the round-robin issuer signals the channel
        // control logic when the die idles (die/channel occupancy is
        // modelled by the backend).
        dispatched = router->route(ready, from_channel, params.ppa);
    } else {
        dispatched = fw.coreIssue(ready).end;
    }
    const CmdSpan span(tr, created, _flags.hwRouter ? "route" : "fw-issue",
                       dispatched);

    // ---- Functional sampling ---------------------------------------
    flash::GnnSampleResult &result = sample(dev, params);

    const bool die_sampling = _flags.sampling == SamplingLoc::Die;
    const std::uint32_t transfer_bytes =
        die_sampling ? result.frameBytes() : backend.config().pageSize;
    const sim::Tick on_die = die_sampling ? sampler.latency(result) : 0;

    // ---- Flash operation --------------------------------------------
    const flash::FlashOpTiming t = lane.sense(
        backend, span, dispatched, params.ppa, transfer_bytes, on_die);
    if (t.failed) {
        // The die was killed before the sense completed: the command
        // aborts at failure-detection time. No frame parses, no page
        // crosses the channel (the backend counted the failed read)
        // and no children spawn — it retires an empty, failed result.
        flash::GnnSampleResult none;
        none.ok = false;
        retireCommand(dev, params, none, created, t.xferEnd, 0);
        return;
    }
    if (_flags.hwRouter)
        router->bindCompletion(params.ppa, t.xferEnd);

    // ---- Result consumption ------------------------------------------
    sim::Tick parsed;
    std::uint64_t dram_bytes = 0;
    if (_flags.hwRouter) {
        // The stream parser classifies the frame; feature payload DMAs
        // into DRAM without per-transfer firmware configuration.
        parsed = router->parse(t.xferEnd);
        if (result.featureIncluded && !_flags.bypassDram) {
            // The mini-batch is only complete once its feature
            // payloads land in SSD DRAM — this is the DRAM-bandwidth
            // wall of Fig. 18d.
            sim::Grant mem =
                fw.dram().acquire(parsed, result.featureBytes);
            dram_bytes = result.featureBytes;
            lane.finishMax = std::max(lane.finishMax, mem.end);
            if (tr)
                tr->complete("feature-dma", "dram",
                             port.tracePidBase + flash::kTraceDramPid,
                             0, parsed, mem.end);
        }
    } else {
        // BG-DGSP: frames land in DRAM, a core parses each. BG-DG: the
        // full page lands in DRAM, a core parses and samples it in
        // firmware (same two-level DirectGraph discipline).
        sim::Grant mem = fw.dram().acquire(t.xferEnd, transfer_bytes);
        dram_bytes = transfer_bytes;
        parsed = fw.coreComplete(
                       mem.end,
                       die_sampling ? 0
                                    : fw.config().controller.coreSampleTime)
                     .end;
    }
    span.child("consume", t.xferEnd, parsed);
    span.end(parsed);
    if (stamp)
        *stamp = {batch->stamp, parsed};
    if (port.cache)
        port.cache->fill(self_addr.raw, parsed);

    // ---- Lifetime statistics (sensed commands only) ------------------
    lane.cmdStats.record(created, t.senseStart, t.flashTime(), parsed);
    // Per-device health EWMA (alpha = 1/8): this device's own view of
    // its command latency, published as array.devD.health.* when
    // faults are armed. Lane-owned — never a routing input shared
    // across lanes, so determinism holds for any worker count.
    DeviceHealth &dh = laneHealth[dev];
    const double lat_us = sim::toMicros(parsed - created);
    dh.latencyEwmaUs = dh.samples == 0
                           ? lat_us
                           : 0.875 * dh.latencyEwmaUs + 0.125 * lat_us;
    ++dh.samples;

    retireCommand(dev, params, result, created, parsed, dram_bytes);
}

flash::GnnSampleResult &
GnnEngine::sample(unsigned dev, const flash::GnnSampleParams &params)
{
    std::optional<dg::SectionData> section =
        source.fetch(dg::DgAddress(params.ppa, params.sectionIndex));
    if (section && section->node >= g.numNodes())
        section.reset();
    flash::GnnSampleResult &out = batch->lanes[dev].result;
    ports[dev].sampler->execute(section, params, out);
    return out;
}

void
GnnEngine::retireCommand(unsigned dev, const flash::GnnSampleParams &params,
                         flash::GnnSampleResult &result,
                         sim::Tick created, sim::Tick done,
                         std::uint64_t dram_bytes)
{
    Batch::Lane &lane = batch->lanes[dev];
    lane.tally.dramBytes += dram_bytes;
    if (result.featureIncluded)
        lane.tally.featureBytes += result.featureBytes;
    if (!result.ok)
        lane.abort();

    // ---- Subgraph + children ------------------------------------------
    gnn::Slot parent = params.parentSlot;
    if (!params.isSecondary && result.ok) {
        parent = lane.add(dev, static_cast<graph::NodeId>(result.nodeId),
                          params.hop, params.parentSlot);
    }
    const unsigned channel =
        ports[dev].backend->codec().channelOf(params.ppa);
    for (flash::GnnSampleParams &f : result.follow) {
        f.parentSlot = parent;
        scheduleChild(f, done, channel, dev);
    }

    const unsigned span = params.finalHop
                              ? model.hops
                              : std::min<unsigned>(params.hop, model.hops);
    lane.hops[span].cover(created, done);
    lane.finishMax = std::max(lane.finishMax, done);
}

void
GnnEngine::scheduleChild(flash::GnnSampleParams child, sim::Tick parsed,
                         unsigned this_channel, unsigned dev)
{
    Batch::Lane &lane = batch->lanes[dev];
    unsigned child_dev = dev;
    if (multiDevice() && !child.isSecondary) {
        // Primary follow-ups may target a node another device owns;
        // secondary sections always sit beside their primary. With
        // replication the child goes to the least-loaded healthy
        // replica (this lane's own routed table), which may well be
        // this device — replication cuts cross-device traffic too.
        if (auto sp = layout.directory.find(
                dg::DgAddress(child.ppa, child.sectionIndex))) {
            child_dev = routeOn(laneRouted[dev], sp->node, parsed,
                                lane.replicaFallbacks);
            if (child_dev == kNoReplica) {
                // Every replica of the child is dead: the follow-up
                // is lost and the batch degrades.
                lane.abort();
                return;
            }
        }
    }
    if (child_dev == dev) {
        // Same-device follow-up: the device schedules onto its own
        // local clock.
        homeQueue(dev).scheduleAt(
            parsed, [this, child, this_channel, dev] {
                streamCommand(child, homeQueue(dev).now(), this_channel,
                              dev);
            });
        return;
    }
    // Cross-device hop (§VIII): the command descriptor crosses the
    // source device's P2P port, then enters the owner's crossbar at
    // the child's channel like a host-injected target. The arrival is
    // at least one fabric lookahead away, so it waits in this lane's
    // outbox for the deliver hook — never scheduled onto the foreign
    // queue, which may be mid-window on another worker thread
    // (DESIGN.md §13).
    sim::Grant link =
        ports[dev].p2pOut->acquire(parsed, kP2pCommandBytes);
    const sim::Tick arrive = link.end + fabric.p2pLatency;
    ++lane.device.p2pForwards;
    lane.device.p2pBytes += kP2pCommandBytes;
    if constexpr (sim::kCheckedBuild) {
        if (validator)
            validator->onCrossPost(dev, child_dev, arrive,
                                   homeQueue(dev).now());
    }
    const unsigned entry =
        ports[child_dev].backend->codec().channelOf(child.ppa);
    lane.outbox.push_back(
        {child_dev, {arrive, [this, child, entry, child_dev] {
                         streamCommand(child, homeQueue(child_dev).now(),
                                       entry, child_dev);
                     }}});
}
// ====================================================================
// Hop-by-hop (barrier) pipeline: CC, GLIST, SmartSage, BG-1, BG-SP.
//
// Conventional (non-DirectGraph) data layout: the graph structure and
// the feature table are separate in-storage objects (Table I), so a
// visit costs neighbour-list page reads for sampling plus a separate
// feature-table page read. Hops are separated by host-SSD round trips.
// ====================================================================

namespace {

/**
 * Synthetic feature-table region: vector of node v lives in a page of
 * a block region at the top of the device, striped across channels
 * and dies like any large file.
 */
flash::Ppa
featureTablePpa(const flash::FlashConfig &cfg, graph::NodeId node,
                std::uint32_t feat_bytes)
{
    std::uint32_t per_page = std::max<std::uint32_t>(
        1, cfg.pageSize / std::max<std::uint32_t>(1, feat_bytes));
    std::uint64_t page_idx = node / per_page;
    std::uint64_t total_blocks = cfg.totalBlocks();
    // Stripe the region across one block per die so feature lookups
    // spread over the whole backend (a multi-GB table does naturally).
    std::uint64_t stripe = std::max(1u, cfg.totalDies());
    std::uint64_t block =
        total_blocks - 1 - (page_idx % stripe) % total_blocks;
    std::uint64_t page_in_block =
        (page_idx / stripe) % cfg.pagesPerBlock;
    return static_cast<flash::Ppa>(block * cfg.pagesPerBlock +
                                   page_in_block);
}

} // namespace

sim::Tick
GnnEngine::runHop(unsigned hop, sim::Tick hop_start)
{
    // The barrier pipeline is single-device (the constructor rejects
    // multi-device non-streaming platforms), so port 0 is the SSD and
    // lane 0 holds the whole batch.
    Batch::Lane &lane = batch->lanes[0];
    std::vector<Visit> &visits = batch->visits;
    flash::FlashBackend &backend = *ports[0].backend;
    ssd::Firmware &fw = *ports[0].fw;
    const DieSampler &sampler = *ports[0].sampler;
    const auto &ctl = fw.config().controller;
    const auto &host = fw.config().host;
    const auto &flash_cfg = backend.config();
    const std::uint32_t feat_bytes = std::uint32_t{model.featureDim} * 2;
    const bool die_sampling = _flags.sampling == SamplingLoc::Die;
    const bool host_sampling = _flags.sampling == SamplingLoc::Host;
    const bool final_hop = hop >= model.hops;

    // The next hop's visits, accumulated this hop.
    std::vector<Visit> &next = batch->nextVisits;

    // Every read of the hop is computed analytically and covers the
    // hop's span; the hop barrier is the span's last activity.
    HopSpan &hop_span = lane.hops[std::min<unsigned>(hop, model.hops)];

    /**
     * One backend read through the firmware: issue core (+ FTL lookup
     * for the conventional LPA path), flash, DMA to DRAM, completion
     * core, then optionally the host path (software-stack service and
     * PCIe transfer). Records Fig. 16/17 statistics and returns the
     * command's end, its share of the hop barrier.
     */
    auto do_read = [&](sim::Tick ready, flash::Ppa ppa, std::uint32_t bytes,
                       sim::Tick on_die, sim::Tick core_extra, bool to_host,
                       std::uint32_t pcie_bytes) {
        const sim::Tick created = ready;
        if (to_host) {
            // Host software stack issues the block I/O.
            ready = fw.hostIoService(ready).end;
            lane.tally.hostCpuBusy += host.ioOverhead;
        }
        const sim::Tick dispatched =
            fw.coreIssue(ready, ctl.ftlLookupTime).end;
        const CmdSpan span(trace, created, to_host ? "host-io" : "fw-issue",
                           dispatched);
        // ---- Device-DRAM cache probe (DESIGN.md §14) ----------------
        // Die-assisted reads (on_die > 0) always sense — the sampler
        // works beside the die — so only plain page reads participate.
        // A hit is still a host-visible command (counted, cmd-stats
        // with zero flash time) but no flash operation is issued.
        cache::VertexCache *vc = ports[0].cache;
        const bool cacheable = vc && on_die == 0;
        std::optional<sim::Tick> filled =
            cacheable ? vc->lookup(ppa) : std::nullopt;
        flash::FlashOpTiming t;
        if (filled) {
            ++lane.device.commands;
            t.senseStart = dispatched;
            t.xferEnd = std::max(dispatched, *filled);
        } else {
            t = lane.sense(backend, span, dispatched, ppa, bytes, on_die);
            if (t.failed) {
                // A dead die aborts the command at failure-detection
                // time, as on the streaming pipeline: no page reaches
                // DRAM or the host, and no cache line fills.
                lane.abort();
                hop_span.cover(created, t.xferEnd);
                return t.xferEnd;
            }
        }
        sim::Grant mem = fw.dram().acquire(t.xferEnd, bytes);
        lane.tally.dramBytes += bytes;
        sim::Tick parsed = fw.coreComplete(mem.end, core_extra).end;
        if (cacheable && !filled)
            vc->fill(ppa, parsed);
        if (to_host && pcie_bytes > 0) {
            parsed = fw.pcie().acquire(parsed, pcie_bytes).end;
            lane.tally.pcieBytes += pcie_bytes;
        }
        if (filled && trace)
            trace->complete("cache-hit", "cache",
                            ports[0].tracePidBase + flash::kTraceDramPid,
                            0, created, parsed);
        span.child("consume", t.xferEnd, parsed);
        span.end(parsed);
        lane.cmdStats.record(created, t.senseStart,
                             filled ? 0 : t.flashTime(), parsed);
        hop_span.cover(created, parsed);
        return parsed;
    };

    // Secondary continuations discovered during the visit loop; they
    // become ready when their primary result parses, so they are
    // issued afterwards in ready-time order (exact FIFO pools).
    std::vector<Continuation> &pending_continuations =
        batch->continuations;

    /**
     * One die-sampler command (BG-SP) on the section @p p names, ready
     * at @p ready: a failed §VI-E check aborts it; next-hop children
     * join the next hop's visits under @p slot, and coalesced
     * secondary continuations are deferred until this frame parses.
     */
    auto die_step = [&](const flash::GnnSampleParams &p, gnn::Slot slot,
                        sim::Tick ready) {
        const flash::GnnSampleResult &r = sample(0, p);
        if (!r.ok)
            lane.abort();
        const std::size_t first_new = pending_continuations.size();
        for (const flash::GnnSampleParams &f : r.follow) {
            if (f.isSecondary) {
                pending_continuations.push_back({0, f, slot});
            } else if (auto sp = layout.directory.find(
                           dg::DgAddress(f.ppa, f.sectionIndex))) {
                next.push_back({sp->node, slot});
            }
        }
        const sim::Tick parsed = do_read(ready, p.ppa, r.frameBytes(),
                                         sampler.latency(r), 0, false, 0);
        for (std::size_t i = first_new; i < pending_continuations.size();
             ++i)
            pending_continuations[i].ready = parsed;
    };

    for (const auto &v : visits) {
        const dg::NodeLayout &nl = layout.nodes[v.node];
        gnn::Slot slot =
            lane.add(0, v.node, static_cast<std::uint8_t>(hop), v.parent);

        // ---- Feature retrieval ---------------------------------------
        // BG-SP converts the dataset into its co-located in-SSD
        // format (feature vectors beside neighbour lists — the data
        // the die-level vector retriever needs), so features arrive
        // inside the sampling frames; only final-hop nodes need a
        // dedicated feature command. The conventional platforms keep
        // the feature table as a separate object (Table I) and read
        // one of its pages per visit.
        lane.tally.featureBytes += feat_bytes;
        flash::Ppa fppa =
            featureTablePpa(flash_cfg, v.node, feat_bytes);
        if (die_sampling) {
            // Feature frame from the node's primary page.
            if (final_hop)
                do_read(hop_start, nl.primary.page(), 16 + feat_bytes,
                        fw.config().engine.samplerSetup, 0, false, 0);
        } else if (_flags.featuresViaHost) {
            // CC / SmartSage: host block read of the feature page,
            // page over PCIe to the host, vector onward to the
            // discrete accelerator.
            do_read(hop_start, fppa, flash_cfg.pageSize, 0, 0, true,
                    flash_cfg.pageSize + feat_bytes);
        } else {
            // GLIST / BG-1: offloaded table lookup, page to SSD DRAM.
            do_read(hop_start, fppa, flash_cfg.pageSize, 0, 0, false, 0);
        }

        if (final_hop)
            continue;

        // ---- Neighbour-list fetch + sampling ------------------------
        if (die_sampling) {
            // BG-SP: die-level sampler on the graph-structure pages,
            // features included (co-located format, see above); next-
            // hop node ids still return to the host for translation
            // each hop.
            die_step(primaryParams(v.node, hop), slot, hop_start);
        } else {
            // Host (CC, GLIST) or firmware (SmartSage, BG-1) sampling:
            // the full neighbour list is fetched — the primary page
            // plus every distinct secondary page (read amplification,
            // Challenge 2).
            std::vector<flash::Ppa> &pages = batch->pages;
            pages.assign(1, nl.primary.page());
            for (const auto &r : nl.secondaries) {
                if (std::find(pages.begin() + 1, pages.end(),
                              r.addr.page()) == pages.end())
                    pages.push_back(r.addr.page());
            }

            // Functional sampling: plain uniform draws over the full
            // neighbour list (csrSample semantics).
            for (std::uint32_t r : gnn::drawUniform(
                     model.seed, batch->id, static_cast<std::uint8_t>(hop),
                     v.node,
                     model.fanoutAt(std::min<unsigned>(hop, 255)),
                     nl.degree))
                next.push_back({g.neighbor(v.node, r), slot});

            for (std::size_t i = 0; i < pages.size(); ++i) {
                // Firmware sampling pays the software sampler cost on
                // the visit's last page.
                sim::Tick extra =
                    (!host_sampling && i + 1 == pages.size())
                        ? ctl.coreSampleTime
                        : 0;
                do_read(hop_start, pages[i], flash_cfg.pageSize, 0, extra,
                        host_sampling, host_sampling ? flash_cfg.pageSize : 0);
            }
        }
    }

    // Issue the deferred secondary continuations in ready order. A
    // secondary section emits next-hop children only, so die_step adds
    // none here; indexing and copying stay safe even if it did.
    std::stable_sort(pending_continuations.begin(),
                     pending_continuations.end(),
                     [](const Continuation &a, const Continuation &x) {
                         return a.ready < x.ready;
                     });
    for (std::size_t i = 0; i < pending_continuations.size(); ++i) {
        const Continuation pc = pending_continuations[i];
        die_step(pc.params, pc.slot, pc.ready);
    }
    pending_continuations.clear();

    sim::Tick last = std::max(hop_start, hop_span.last);
    if (final_hop || next.empty()) {
        lane.finishMax = last;
        visits.clear();
        next.clear();
        return last;
    }

    // Inter-hop host-SSD communication barrier (§III Challenge 1).
    std::size_t n_children = next.size();
    sim::Tick host_time = host.translatePerNode * n_children;
    if (host_sampling)
        host_time += host.samplePerNode * visits.size();
    lane.tally.hostCpuBusy += host_time;
    if (!host_sampling) {
        // In-SSD sampling returns the sampled ids to the host, which
        // translates them into the next hop's addresses.
        sim::Grant link = fw.pcie().acquire(last, 4ull * n_children);
        lane.tally.pcieBytes += 4ull * n_children;
        last = link.end;
    }
    visits.swap(next);
    next.clear();
    return last + host_time + host.nvmeRoundTrip;
}

} // namespace beacongnn::engines
