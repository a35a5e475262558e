/**
 * @file
 * BeaconGNN public API.
 *
 * BeaconGnnSystem is the downstream-facing facade: hand it a graph and
 * a feature table and it performs the full system flow of the paper —
 * reserve physical blocks (§VI-A), build the DirectGraph (Algorithm
 * 1), flush it through the verified manipulation interface (§VI-E),
 * and then serve mini-batches end to end: out-of-order in-storage
 * sampling + feature retrieval on the selected platform, functional
 * GNN forward pass, timing and energy statistics.
 *
 * For the evaluation harness (many platforms x workloads x sweeps)
 * use platforms/runner.h directly; this facade favours clarity over
 * sweep throughput.
 */

#ifndef BEACONGNN_CORE_BEACONGNN_H
#define BEACONGNN_CORE_BEACONGNN_H

#include <memory>

#include "engines/gnn_engine.h"
#include "gnn/compute.h"
#include "platforms/device_context.h"
#include "platforms/platform.h"
#include "ssd/firmware.h"
#include "ssd/host_interface.h"
#include "ssd/io_path.h"

namespace beacongnn {

/** Construction options of a BeaconGNN system instance. */
struct SystemOptions
{
    ssd::SystemConfig system{};
    gnn::ModelConfig model{};
    /** Which platform timing model serves mini-batches. */
    platforms::PlatformKind platform = platforms::PlatformKind::BG2;
};

/** Result of one end-to-end mini-batch. */
struct MiniBatchResult
{
    /** Final embeddings of the targets (hop-0 order). */
    std::vector<std::vector<float>> embeddings;
    /** Data-preparation record (timing, subgraph, tallies). */
    engines::PrepResult prep;
    /** Accelerator time of the compute stage. */
    sim::Tick computeTime = 0;
    /** End of compute (prep pipelined with previous batch). */
    sim::Tick finish = 0;
};

/** The BeaconGNN SSD: one device holding one DirectGraph. */
class BeaconGnnSystem
{
  public:
    /**
     * Ingest a dataset: build + verify + flush the DirectGraph.
     * fatal() if the graph does not fit the device.
     */
    BeaconGnnSystem(graph::Graph g, graph::FeatureTable features,
                    const SystemOptions &opts = {});
    ~BeaconGnnSystem();

    BeaconGnnSystem(const BeaconGnnSystem &) = delete;
    BeaconGnnSystem &operator=(const BeaconGnnSystem &) = delete;

    /** The on-flash layout (addresses, build statistics). */
    const dg::DirectGraphLayout &layout() const { return _layout; }
    const dg::BuildStats &buildStats() const { return _layout.stats; }

    /** Time the initial flush took (construction cost). */
    sim::Tick flushTime() const { return _flushTime; }

    /**
     * Run one mini-batch end to end (in-storage data preparation +
     * GNN computation) and return target embeddings with timing.
     */
    MiniBatchResult runMiniBatch(std::span<const graph::NodeId> targets);

    /** Idle-time scrubbing pass over the DirectGraph blocks (§VI-F). */
    ssd::ScrubReport scrub();

    /**
     * Check the P/E gap and migrate the DirectGraph if it exceeds
     * @p threshold (§VI-F wear-levelling reclamation).
     * @return true if a migration ran.
     */
    bool reclaimIfNeeded(double threshold = 64.0);

    /** Inject a retention bit error (testing / fault injection). */
    bool corruptBit(flash::Ppa ppa, std::uint32_t byte, unsigned bit)
    {
        return _store.corruptBit(ppa, byte, bit);
    }

    /**
     * Regular block-I/O interface of the device (§VI-G): standard
     * reads/writes coexist with the DirectGraph; requests issued
     * while a mini-batch is in flight are deferred to its end.
     */
    ssd::IoPath &io() { return *_io; }

    /** The §VI-A manipulation interface the constructor used (block
     *  list fetch, config delivery, verified flush). */
    ssd::HostInterface &hostInterface() { return *_host; }

    ssd::Firmware &firmware() { return _device->firmware(); }
    flash::PageStore &pageStore() { return _store; }
    const graph::Graph &graph() const { return _graph; }
    const gnn::ModelConfig &model() const { return opts.model; }

  private:
    /** (Re)build the byte-backed section source and the engine over
     *  the current layout. */
    void bindEngine();

    SystemOptions opts;
    platforms::PlatformConfig _platform;
    graph::Graph _graph;
    graph::FeatureTable _features;
    flash::PageStore _store;
    /** The SSD: queue, backend, firmware, sampler bank, router and
     *  accelerator, assembled by the platform layer. */
    std::unique_ptr<platforms::DeviceContext> _device;
    dg::DirectGraphLayout _layout;
    std::unique_ptr<ssd::HostInterface> _host;
    std::unique_ptr<ssd::IoPath> _io;
    std::unique_ptr<dg::PageByteSource> _source;
    std::unique_ptr<engines::GnnEngine> _engine;
    sim::Tick _flushTime = 0;
    sim::Tick _prepCursor = 0;
    std::uint64_t _batchCounter = 0;
};

} // namespace beacongnn

#endif // BEACONGNN_CORE_BEACONGNN_H
