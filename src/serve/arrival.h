/**
 * @file
 * Open-loop arrival stream generation.
 *
 * Two arrival processes:
 *  - Poisson: exponential inter-arrival gaps at the configured mean
 *    rate — the classic open-loop serving benchmark assumption.
 *  - Bursty: a two-state Markov-modulated Poisson process. The
 *    stream alternates between a burst state (rate multiplied by
 *    `burstFactor`) and a calm state whose rate is chosen so the
 *    long-run mean stays at `ratePerSec`; state residencies are
 *    exponential with mean `burstMeanTicks` / scaled calm mean.
 *
 * Everything is drawn from one sim::Pcg32 seeded by the caller, so a
 * given (config, node count) pair always produces byte-identical
 * streams — across runs and across worker counts.
 */

#ifndef BEACONGNN_SERVE_ARRIVAL_H
#define BEACONGNN_SERVE_ARRIVAL_H

#include <vector>

#include "serve/request.h"

namespace beacongnn::serve {

/** Arrival process families. */
enum class ArrivalProcess : std::uint8_t
{
    Poisson,
    Bursty,
};

/** Configuration of one open-loop request stream. */
struct ArrivalConfig
{
    ArrivalProcess process = ArrivalProcess::Poisson;
    double ratePerSec = 2000.0;  ///< Long-run mean arrival rate.
    std::uint64_t requests = 512; ///< Stream length.
    std::uint64_t seed = 0x5EED;  ///< Stream seed.
    std::uint32_t tenants = 4;    ///< Tenant count; QoS = tenant % 3.

    /** Bursty process: rate multiplier while in the burst state. */
    double burstFactor = 8.0;
    /** Bursty process: long-run fraction of time in the burst state. */
    double burstFraction = 0.1;
    /** Bursty process: mean burst residency. */
    sim::Tick burstMeanTicks = sim::milliseconds(2);

    /** Zipf(θ) skew of the target popularity distribution; 0
     *  (default) keeps the historical uniform targets. Rank k maps to
     *  node id k, so the hot set is the low node ids. */
    double zipfTheta = 0.0;
};

/**
 * Generate the request stream: arrival times are nondecreasing, ids
 * are sequential in arrival order, targets are uniform over
 * [0, numNodes) (Zipf(θ)-skewed when zipfTheta > 0), and tenants
 * round through the configured count with QoS class =
 * tenant % kQosClasses.
 */
std::vector<Request> generateArrivals(const ArrivalConfig &cfg,
                                      graph::NodeId numNodes);

/** Display name of an arrival process ("poisson"). */
const char *arrivalName(ArrivalProcess p);

} // namespace beacongnn::serve

#endif // BEACONGNN_SERVE_ARRIVAL_H
