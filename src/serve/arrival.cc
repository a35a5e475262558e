#include "serve/arrival.h"

#include <cmath>
#include <memory>

#include "sim/log.h"
#include "sim/rng.h"
#include "sim/zipf.h"

namespace beacongnn::serve {

const char *
qosName(QosClass q)
{
    switch (q) {
      case QosClass::Interactive: return "interactive";
      case QosClass::Standard: return "standard";
      case QosClass::Batch: return "batch";
    }
    return "?";
}

const char *
arrivalName(ArrivalProcess p)
{
    switch (p) {
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Bursty: return "bursty";
    }
    return "?";
}

namespace {

/** Exponential draw with mean @p mean_ticks (>= 0, finite). */
sim::Tick
expDraw(sim::Pcg32 &rng, double mean_ticks)
{
    // 1 - uniform() is in (0, 1], so the log argument never hits 0.
    double u = 1.0 - rng.uniform();
    double t = -std::log(u) * mean_ticks;
    return static_cast<sim::Tick>(t);
}

} // namespace

std::vector<Request>
generateArrivals(const ArrivalConfig &cfg, graph::NodeId numNodes)
{
    if (cfg.ratePerSec <= 0.0)
        sim::fatal("generateArrivals: rate must be positive");
    if (numNodes == 0)
        sim::fatal("generateArrivals: empty graph");

    sim::Pcg32 rng(cfg.seed, 0x0A51);
    std::vector<Request> out;
    out.reserve(cfg.requests);

    // Skewed target popularity (θ > 0): one uniform per draw, exactly
    // like the historical rng.below() path, so the rest of the stream
    // (gaps, tenants) is unchanged by the distribution choice.
    std::unique_ptr<sim::ZipfSampler> zipf;
    if (cfg.zipfTheta > 0.0)
        zipf = std::make_unique<sim::ZipfSampler>(cfg.zipfTheta,
                                                  numNodes);

    // Mean inter-arrival gap at the long-run rate, in ticks.
    const double mean_gap = 1e9 / cfg.ratePerSec;

    // Bursty: the burst state runs at burstFactor x the mean rate for
    // burstFraction of the time; the calm state's rate preserves the
    // long-run mean (clamped at a trickle when burstFactor is so high
    // that bursts alone exceed the mean).
    double burst_gap = mean_gap / cfg.burstFactor;
    double calm_rate_scale =
        (1.0 - cfg.burstFraction * cfg.burstFactor) /
        (1.0 - cfg.burstFraction);
    double calm_gap = calm_rate_scale > 1e-3 ? mean_gap / calm_rate_scale
                                             : mean_gap * 1e3;
    double burst_mean = static_cast<double>(cfg.burstMeanTicks);
    double calm_mean =
        burst_mean * (1.0 - cfg.burstFraction) / cfg.burstFraction;

    sim::Tick now = 0;
    bool in_burst = false;
    // End of the current modulation state (bursty only).
    sim::Tick state_end =
        cfg.process == ArrivalProcess::Bursty
            ? expDraw(rng, calm_mean)
            : sim::kTickMax;

    for (std::uint64_t i = 0; i < cfg.requests; ++i) {
        if (cfg.process == ArrivalProcess::Poisson) {
            now += expDraw(rng, mean_gap);
        } else {
            sim::Tick gap = expDraw(rng, in_burst ? burst_gap : calm_gap);
            // Cross however many state boundaries the gap spans. The
            // residual gap re-scales with the new state's rate so the
            // process stays Markov-modulated rather than carrying one
            // state's gap into the other.
            while (now + gap >= state_end) {
                double frac =
                    state_end > now
                        ? 1.0 - static_cast<double>(state_end - now) /
                                    static_cast<double>(gap == 0 ? 1 : gap)
                        : 0.0;
                now = state_end;
                in_burst = !in_burst;
                state_end =
                    now + expDraw(rng, in_burst ? burst_mean : calm_mean);
                double scale = in_burst ? burst_gap / calm_gap
                                        : calm_gap / burst_gap;
                gap = static_cast<sim::Tick>(
                    frac * static_cast<double>(gap) * scale);
            }
            now += gap;
        }

        Request r;
        r.id = i;
        r.arrival = now;
        r.tenant = cfg.tenants ? rng.below(cfg.tenants) : 0;
        r.qos = static_cast<QosClass>(r.tenant % kQosClasses);
        r.target = zipf ? static_cast<graph::NodeId>(zipf->draw(rng))
                        : rng.below(numNodes);
        out.push_back(r);
    }
    return out;
}

} // namespace beacongnn::serve
