#include "serve/serve.h"

#include <algorithm>
#include <utility>

namespace beacongnn::serve {

ServeResult
serveWorkload(const platforms::PlatformConfig &platform,
              const platforms::RunConfig &run,
              const platforms::WorkloadBundle &bundle,
              const ServeConfig &cfg,
              std::vector<RequestOutcome> *outcomes,
              sim::MetricRegistry *metrics)
{
    ServeResult res;
    res.platform = platform.name;
    res.workload = bundle.name;
    res.offeredRate = cfg.arrivals.ratePerSec;
    res.requests = cfg.arrivals.requests;

    std::vector<Request> arrivals =
        generateArrivals(cfg.arrivals, bundle.graph.numNodes());
    if (cfg.models.size() > 1)
        for (Request &r : arrivals)
            r.modelId = static_cast<std::uint8_t>(r.tenant %
                                                  cfg.models.size());
    MicroBatcher batcher(cfg.policy, std::move(arrivals));
    platforms::PlatformSession session(platform, run, bundle);

    // Per-request model selection: each configured kind becomes a
    // spec over the bundle's sampling shape; requests pick a spec via
    // their modelId. Empty = single-model, the historical path.
    std::vector<gnn::ModelSpec> specs;
    specs.reserve(cfg.models.size());
    for (gnn::ModelKind k : cfg.models) {
        gnn::ModelSpec sp = bundle.model;
        sp.kind = k;
        specs.push_back(sp);
    }
    res.perModelRequests.assign(specs.size(), 0);

    auto record = [&](const Request &r,
                      const platforms::BatchService &svc) {
        RequestOutcome o;
        o.id = r.id;
        o.qos = r.qos;
        o.arrival = r.arrival;
        o.dispatch = svc.prepStart;
        o.prepDone = svc.prepFinish;
        o.done = svc.computeEnd;

        res.queueingUs.add(sim::toMicros(o.queueing()));
        res.prepUs.add(sim::toMicros(o.prep()));
        res.computeUs.add(sim::toMicros(o.compute()));
        double total_us = sim::toMicros(o.total());
        res.totalUs.add(total_us);
        res.latencyUs.add(total_us);

        ClassReport &c = res.perClass[static_cast<std::size_t>(r.qos)];
        ++c.requests;
        c.totalUs.add(total_us);
        if (o.total() > cfg.slo.target[static_cast<std::size_t>(r.qos)])
            ++c.violations;

        if (outcomes)
            outcomes->push_back(o);
    };

    // Split each dispatch into model-homogeneous sub-batches in stable
    // model order; each sub-batch switches the engine to its spec
    // (re-broadcasting the die configuration) and runs as its own
    // platform batch on the serial prep stream. A single-model run is
    // one group (every modelId is 0) on the session's own model.
    const std::size_t groups = std::max<std::size_t>(1, specs.size());
    std::vector<graph::NodeId> targets;
    Dispatch d;
    while (batcher.next(session.prepFree(), d)) {
        for (std::size_t mid = 0; mid < groups; ++mid) {
            targets.clear();
            for (const Request &r : d.batch)
                if (std::size_t{r.modelId} == mid)
                    targets.push_back(r.target);
            if (targets.empty())
                continue;

            platforms::BatchService svc =
                specs.empty() ? session.runBatch(d.at, targets)
                              : session.runBatch(d.at, targets, specs[mid]);
            if (!svc.ok)
                res.ok = false;

            for (const Request &r : d.batch)
                if (std::size_t{r.modelId} == mid)
                    record(r, svc);
            if (!specs.empty())
                res.perModelRequests[mid] += targets.size();
            res.makespan = std::max(res.makespan, svc.computeEnd);
            ++res.batches;
        }
    }

    res.meanBatchSize =
        res.batches == 0 ? 0.0
                         : static_cast<double>(res.requests) /
                               static_cast<double>(res.batches);
    res.peakQueueDepth = batcher.peakDepth();
    res.achievedRate = res.makespan == 0
                           ? 0.0
                           : static_cast<double>(res.requests) /
                                 sim::toSeconds(res.makespan);

    // finish() makes every platform component publish into the
    // session registry and yields the run-level measurement, which
    // carries the scale-out view (per-device tallies, P2P traffic).
    platforms::RunResult rr = session.finish();
    if (!rr.ok)
        res.ok = false;
    res.devices = rr.devices;
    res.commands = rr.commands;
    res.crossDevice = rr.crossDevice;
    res.crossFraction = rr.crossFraction;
    res.perDevice = rr.perDevice;
    res.replication = rr.replication;
    res.faults = rr.faults;
    res.replicaFallbacks = rr.replicaFallbacks;

    if (metrics) {
        // Fold the session registry in, then the serving layer's own
        // instruments on top.
        metrics->merge(session.metrics());
        metrics->counter("serve.requests").add(res.requests);
        metrics->counter("serve.batches").add(res.batches);
        metrics->counter("serve.makespan_ticks").add(res.makespan);
        metrics->counter("serve.violations").add(res.violations());
        metrics->gauge("serve.offered_rate").set(res.offeredRate);
        metrics->gauge("serve.achieved_rate").set(res.achievedRate);
        metrics->gauge("serve.mean_batch_size").set(res.meanBatchSize);
        metrics->gauge("serve.peak_queue_depth")
            .set(static_cast<double>(res.peakQueueDepth));
        metrics->accum("serve.queueing_us").merge(res.queueingUs);
        metrics->accum("serve.prep_us").merge(res.prepUs);
        metrics->accum("serve.compute_us").merge(res.computeUs);
        metrics->accum("serve.total_us").merge(res.totalUs);
        metrics
            ->histogram("serve.latency_us_hist",
                        res.latencyUs.bucketWidth(),
                        res.latencyUs.buckets().size())
            .merge(res.latencyUs);
        for (std::size_t q = 0; q < res.perClass.size(); ++q) {
            const ClassReport &c = res.perClass[q];
            std::string prefix =
                "serve.class" + std::to_string(q) + ".";
            metrics->counter(prefix + "requests").add(c.requests);
            metrics->counter(prefix + "violations").add(c.violations);
            metrics->accum(prefix + "total_us").merge(c.totalUs);
        }
        // Per-model request counters only exist on multi-model runs,
        // keeping single-model snapshots byte-identical.
        for (std::size_t mid = 0; mid < specs.size(); ++mid) {
            metrics
                ->counter(std::string("model.") +
                          gnn::modelKindName(specs[mid].kind) +
                          ".requests")
                .add(res.perModelRequests[mid]);
        }
        // Fault/degraded instruments exist only when a fault model or
        // replication is armed, so default snapshots stay identical.
        if (res.degraded() || res.replication > 1) {
            metrics->gauge("serve.replication")
                .set(static_cast<double>(res.replication));
            metrics->gauge("serve.degraded")
                .set(res.degraded() ? 1.0 : 0.0);
            metrics->counter("serve.replica_fallbacks")
                .add(res.replicaFallbacks);
        }
        if (res.devices > 1) {
            metrics->gauge("serve.devices")
                .set(static_cast<double>(res.devices));
            for (std::size_t dev = 0; dev < res.perDevice.size();
                 ++dev) {
                std::string prefix =
                    "serve.dev" + std::to_string(dev) + ".";
                metrics->counter(prefix + "commands")
                    .add(res.perDevice[dev].commands);
                metrics->gauge(prefix + "command_share")
                    .set(res.deviceShare(dev));
            }
        }
    }
    return res;
}

} // namespace beacongnn::serve
