/**
 * @file
 * The online serving driver: wires an open-loop arrival stream and
 * the micro-batching scheduler onto an open PlatformSession, records
 * each request's queueing/prep/compute breakdown, and reports
 * tail-latency percentiles and SLO-violation rates.
 *
 * Determinism: the arrival stream is a pure function of its config,
 * the scheduler is a pure decision procedure, and the platform
 * session is a pure function of (platform, run config, bundle) — so
 * a ServeResult is byte-identical across repeated runs and across
 * any worker count when sweep points run in parallel.
 */

#ifndef BEACONGNN_SERVE_SERVE_H
#define BEACONGNN_SERVE_SERVE_H

#include <array>
#include <string>

#include "platforms/runner.h"
#include "serve/arrival.h"
#include "serve/scheduler.h"

namespace beacongnn::serve {

/** Per-class latency SLO targets (total latency, arrival to done). */
struct SloConfig
{
    std::array<sim::Tick, kQosClasses> target = {
        sim::milliseconds(5),   // Interactive
        sim::milliseconds(20),  // Standard
        sim::milliseconds(100), // Batch
    };
};

/** Everything one serving experiment needs besides the platform. */
struct ServeConfig
{
    ArrivalConfig arrivals;
    BatchPolicy policy;
    SloConfig slo;
    /** Model-zoo entries served side by side: request modelId selects
     *  one (specs derive from the bundle model with the kind
     *  replaced), and each dispatch splits into model-homogeneous
     *  sub-batches so the engine switches specs between batches.
     *  Empty (default) = the bundle model for every request — the
     *  historical single-model path, byte-identical. Request
     *  modelId = tenant % models.size(). */
    std::vector<gnn::ModelKind> models;
};

/** Latency/SLO tally of one QoS class. */
struct ClassReport
{
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    sim::Accumulator totalUs; ///< Total latency, microseconds.

    double
    violationPct() const
    {
        return requests == 0 ? 0.0
                             : 100.0 * static_cast<double>(violations) /
                                   static_cast<double>(requests);
    }
};

/** Everything measured by one serving run. */
struct ServeResult
{
    std::string platform;
    std::string workload;
    bool ok = true;

    double offeredRate = 0;  ///< Configured arrival rate (req/s).
    double achievedRate = 0; ///< Completions / makespan (req/s).
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0;
    std::size_t peakQueueDepth = 0;
    sim::Tick makespan = 0; ///< Last completion time.

    // Latency breakdown over all requests, microseconds.
    sim::Accumulator queueingUs;
    sim::Accumulator prepUs;
    sim::Accumulator computeUs;
    sim::Accumulator totalUs;
    /** Total-latency distribution: 50 us buckets, ~400 ms span (the
     *  percentile() overflow clamp covers saturated runs beyond it). */
    sim::Histogram latencyUs{50.0, 8192};

    std::array<ClassReport, kQosClasses> perClass;

    // Scale-out view (degenerate for a single-device topology).
    unsigned devices = 1;          ///< Devices serving the stream.
    std::uint64_t commands = 0;    ///< Flash commands executed.
    std::uint64_t crossDevice = 0; ///< Commands that crossed P2P links.
    /** RunResult::crossFraction: crossDevice over every issued command,
     *  short-path hits included; 0 when none was issued. */
    double crossFraction = 0;
    /** Per-device command/byte tallies (devices entries). */
    std::vector<engines::DeviceTally> perDevice;

    /** Requests served per model-zoo entry (cfg.models entries;
     *  empty on a single-model run). */
    std::vector<std::uint64_t> perModelRequests;

    // Fault-injection view (DESIGN.md §17; defaults when fault-free).
    unsigned replication = 1;      ///< Effective replication factor.
    /** The applied kill schedule (empty = fault-free run). */
    std::vector<platforms::KillEvent> faults;
    /** Commands served by a surviving replica of a killed device. */
    std::uint64_t replicaFallbacks = 0;
    /** Did the stream run with devices/dies down? */
    bool degraded() const { return !faults.empty(); }

    /** Share of all flash commands device @p d executed (0..1). */
    double
    deviceShare(std::size_t d) const
    {
        if (commands == 0 || d >= perDevice.size())
            return 0.0;
        return static_cast<double>(perDevice[d].commands) /
               static_cast<double>(commands);
    }

    /** Total-latency percentile in microseconds. */
    double p(double pct) const { return latencyUs.percentile(pct); }

    /** Batch total-latency percentiles (fractions in [0, 1], e.g.
     *  {0.5, 0.99, 0.999}), microseconds — one bucket walk for the
     *  whole set (sim::Histogram::percentiles). */
    std::vector<double>
    percentiles(const std::vector<double> &qs) const
    {
        return latencyUs.percentiles(qs);
    }

    std::uint64_t
    violations() const
    {
        std::uint64_t v = 0;
        for (const auto &c : perClass)
            v += c.violations;
        return v;
    }

    double
    violationPct() const
    {
        return requests == 0 ? 0.0
                             : 100.0 * static_cast<double>(violations()) /
                                   static_cast<double>(requests);
    }

    /**
     * Open-loop saturation test: the platform kept up with the
     * offered load iff it completed requests at (nearly) the rate
     * they arrived. Under overload the queue grows without bound and
     * the completion rate pins at the service capacity.
     */
    bool saturated() const { return achievedRate < 0.95 * offeredRate; }
};

/**
 * Serve one open-loop request stream on one platform.
 *
 * @param outcomes Optional: receives the per-request breakdowns in
 *                 completion order (batch by batch).
 * @param metrics  Optional: receives the session's full instrument
 *                 registry plus the `serve.*` instruments.
 */
ServeResult serveWorkload(const platforms::PlatformConfig &platform,
                          const platforms::RunConfig &run,
                          const platforms::WorkloadBundle &bundle,
                          const ServeConfig &cfg,
                          std::vector<RequestOutcome> *outcomes = nullptr,
                          sim::MetricRegistry *metrics = nullptr);

} // namespace beacongnn::serve

#endif // BEACONGNN_SERVE_SERVE_H
