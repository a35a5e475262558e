#include "core/beacongnn.h"

#include "directgraph/builder.h"
#include "sim/log.h"

namespace beacongnn {

BeaconGnnSystem::BeaconGnnSystem(graph::Graph g,
                                 graph::FeatureTable features,
                                 const SystemOptions &options)
    : opts(options), _platform(platforms::makePlatform(opts.platform)),
      _graph(std::move(g)), _features(std::move(features)),
      _store(opts.system.flash)
{
    opts.model.featureDim = _features.dim();
    // The SSD is assembled like every platform run's (one device, no
    // cache); its FTL starts empty — the §VI-A flow below reserves.
    _device = std::make_unique<platforms::DeviceContext>(
        _platform, opts.system, platforms::TopologyConfig{}, opts.model,
        std::vector<flash::BlockId>{}, 0, false);
    ssd::Firmware &fw = _device->firmware();

    // §VI-A: the host fetches reserved block addresses, converts the
    // dataset and flushes it through the manipulation interface.
    const std::uint64_t want =
        dg::reservedBlockCount(_graph, _features, opts.system.flash);
    _host = std::make_unique<ssd::HostInterface>(fw);
    // §VI-A flow: fetch the reserved block list, deliver the GNN
    // configuration, convert, then flush through the verified path.
    auto blocks = _host->getBlockList(0, want);
    if (blocks.empty())
        sim::fatal("BeaconGnnSystem: device too small for this graph");
    _host->setGnnConfig(0, engines::gnnGlobalConfig(opts.model));

    _layout = dg::buildLayout(_graph, _features, opts.system.flash,
                              blocks);
    // Hand unused reserved blocks back.
    std::vector<flash::BlockId> unused(blocks.begin() +
                                           _layout.blocks.size(),
                                       blocks.end());
    fw.ftl().releaseBlocks(unused);

    ssd::FlushResult flush = _host->flushDirectGraph(
        0, _layout, _graph, _features, _store, _device->backend());
    if (!flush.ok)
        sim::fatal("BeaconGnnSystem: DirectGraph flush failed "
                   "verification");
    _flushTime = flush.finish;
    _prepCursor = flush.finish;

    _io = std::make_unique<ssd::IoPath>(fw, _device->backend(), _store);
    bindEngine();
}

BeaconGnnSystem::~BeaconGnnSystem() = default;

void
BeaconGnnSystem::bindEngine()
{
    _source = std::make_unique<dg::PageByteSource>(_store,
                                                   _features.dim());
    _engine = std::make_unique<engines::GnnEngine>(
        std::vector<engines::DevicePort>{_device->port()}, _layout,
        _graph, opts.model, _platform.flags, *_source);
}

MiniBatchResult
BeaconGnnSystem::runMiniBatch(std::span<const graph::NodeId> targets)
{
    MiniBatchResult out;
    // The target list reaches the device as a SubmitBatch command,
    // which the engine charges and runs to completion.
    out.prep = _engine->run(_prepCursor, _batchCounter++, targets);
    _prepCursor = out.prep.finish;
    // §VI-G: regular storage requests arriving during the mini-batch
    // are deferred to its end.
    _io->enterAccelerationMode(out.prep.finish);

    // Functional forward pass on the sampled subgraph.
    out.embeddings = gnn::forward(out.prep.subgraph, _features,
                                  opts.model);

    // Timing of the compute stage, pipelined behind the previous
    // batch on the accelerator.
    gnn::ComputeWorkload w =
        gnn::measureCompute(out.prep.subgraph, opts.model);
    accel::ComputeEstimate est = _device->accelerator().estimate(w);
    sim::Grant grant = _device->compute(out.prep.finish, est.total(),
                                        out.prep.perDevice[0].featureBytes);
    out.computeTime = est.total();
    out.finish = grant.end;
    return out;
}

ssd::ScrubReport
BeaconGnnSystem::scrub()
{
    return _device->firmware().scrub(_layout, _graph, _features, _store);
}

bool
BeaconGnnSystem::reclaimIfNeeded(double threshold)
{
    ssd::Firmware &fw = _device->firmware();
    if (!fw.ftl().needsReclaim(_store, threshold))
        return false;
    // Erase the old copy only after the migrated one is verified;
    // reclaimDirectGraph handles the whole sequence.
    ssd::ReclaimResult r = fw.reclaimDirectGraph(
        _prepCursor, _layout, _graph, _features, _store,
        _device->backend());
    if (!r.ok)
        return false;
    _layout = std::move(r.layout);
    _prepCursor = r.finish;
    // Rebind the engine and source to the migrated layout.
    bindEngine();
    return true;
}

} // namespace beacongnn
