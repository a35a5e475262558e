/**
 * @file
 * Cache tier sweep (DESIGN.md §14): hit rate, flash-sense savings and
 * serving tail latency versus cache size, eviction policy and target
 * skew.
 *
 * Two parts, one CSV (results/cache_sweep.csv):
 *
 *  1. Offline prep (BG-2 on amazon): policy x capacity x Zipf(θ)
 *     grid, reporting the cache hit rate and the flash reads saved
 *     against the cache-less run at the same skew.
 *
 *  2. Serving crossover: CC with a device cache versus plain BG-2
 *     over an offered-rate ladder at each skew — the question being
 *     whether DRAM caching alone can carry the CPU-centric baseline
 *     past the in-storage pipeline (it narrows the gap on hot
 *     traffic; the crossover line reports where, if anywhere, the
 *     p99 curves cross).
 */

#include "common.h"

#include <fstream>

#include "cache/vertex_cache.h"
#include "serve/serve.h"
#include "sim/metrics.h"

using namespace bench;
using beacongnn::cache::CachePolicy;
using beacongnn::serve::ServeConfig;
using beacongnn::serve::ServeResult;

namespace {

constexpr const char *kWorkload = "amazon";

struct PrepPoint
{
    CachePolicy policy;
    double theta;
    double cacheMB;
    double hitRate = 0;
    std::uint64_t flashReads = 0;
};

PrepPoint
runPrep(CachePolicy policy, double theta, double cache_mb)
{
    PrepPoint p;
    p.policy = policy;
    p.theta = theta;
    p.cacheMB = cache_mb;
    RunConfig rc = defaultRun();
    rc.zipfTheta = theta;
    rc.cache.capacityMB = cache_mb;
    rc.cache.policy = policy;
    beacongnn::sim::MetricRegistry reg;
    RunResult r =
        runPlatform(platforms::makePlatform(PlatformKind::BG2), rc,
                    bundle(kWorkload), &reg);
    p.flashReads = r.tally.flashReads;
    p.hitRate = cache_mb > 0.0
                    ? reg.gauge("engine.cache.hit_rate").value()
                    : 0.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    std::filesystem::create_directories("results");

    const std::vector<double> thetas = {0.6, 0.9, 1.2};
    const std::vector<double> sizes = {16.0, 64.0};
    const std::vector<CachePolicy> policies = {
        CachePolicy::Lru, CachePolicy::MsLru, CachePolicy::Fifo};

    std::ofstream csv("results/cache_sweep.csv");
    csv << "section,platform,policy,theta,cache_mb,rate_per_s,"
           "hit_rate,flash_reads,sense_savings,p50_us,p99_us,"
           "achieved_rate\n";

    // ---- Part 1: offline prep hit rate and sense savings -----------
    banner("Cache sweep 1/2: BG-2 prep, hit rate and sense savings");

    // Grid rows: per theta, the cache-less baseline plus every
    // (policy, size) point.
    struct PrepCell
    {
        CachePolicy policy;
        double theta, mb;
    };
    std::vector<PrepCell> cells;
    for (double theta : thetas) {
        cells.push_back({CachePolicy::Lru, theta, 0.0});
        for (CachePolicy pol : policies)
            for (double mb : sizes)
                cells.push_back({pol, theta, mb});
    }
    auto prep = parallelMap<PrepPoint>(cells.size(), [&](std::size_t i) {
        return runPrep(cells[i].policy, cells[i].theta, cells[i].mb);
    });

    std::printf("%-8s %6s %9s %9s %12s %13s\n", "policy", "theta",
                "cache_mb", "hit_rate", "flash_reads", "sense_savings");
    for (double theta : thetas) {
        std::uint64_t baseline_reads = 0;
        for (const PrepPoint &p : prep)
            if (p.theta == theta && p.cacheMB == 0.0)
                baseline_reads = p.flashReads;
        for (const PrepPoint &p : prep) {
            if (p.theta != theta)
                continue;
            // Saved senses vs the cache-less run at the same skew;
            // 0/0-guarded like every ratio in the registry.
            double savings =
                baseline_reads == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(p.flashReads) /
                                static_cast<double>(baseline_reads);
            const char *pol =
                p.cacheMB == 0.0 ? "off"
                                 : beacongnn::cache::cachePolicyName(
                                       p.policy);
            std::printf("%-8s %6.2f %9.0f %9.3f %12llu %12.1f%%\n",
                        pol, p.theta, p.cacheMB, p.hitRate,
                        static_cast<unsigned long long>(p.flashReads),
                        100.0 * savings);
            csv << "prep,BG-2," << pol << ',' << p.theta << ','
                << p.cacheMB << ",0," << p.hitRate << ','
                << p.flashReads << ',' << savings << ",0,0,0\n";
        }
    }

    // ---- Part 2: serving crossover, CC+cache vs BG-2 ---------------
    banner("Cache sweep 2/2: serving p99, CC + 64 MiB cache vs BG-2");
    const std::vector<double> rates = {1000, 2000, 5000, 10000, 20000};
    const double kServeCacheMB = 64.0;

    ServeConfig sc;
    sc.arrivals.requests = 192;
    sc.arrivals.seed = 0x5EED;
    sc.policy.maxBatch = 32;
    sc.policy.timeout = beacongnn::sim::microseconds(200);

    const std::size_t nr = rates.size();
    const std::size_t per_theta = 2 * nr; // CC+cache, then BG-2.
    auto serve_results = parallelMap<ServeResult>(
        thetas.size() * per_theta, [&](std::size_t i) {
            const double theta = thetas[i / per_theta];
            const bool cc = (i % per_theta) < nr;
            ServeConfig point = sc;
            point.arrivals.ratePerSec = rates[i % nr];
            point.arrivals.zipfTheta = theta;
            RunConfig rc = defaultRun();
            if (cc) {
                rc.cache.capacityMB = kServeCacheMB;
                rc.cache.policy = CachePolicy::MsLru;
            }
            return serveWorkload(
                platforms::makePlatform(cc ? PlatformKind::CC
                                           : PlatformKind::BG2),
                rc, bundle(kWorkload), point);
        });

    for (std::size_t t = 0; t < thetas.size(); ++t) {
        std::printf("\ntheta %.2f   %10s %12s %12s\n", thetas[t],
                    "rate", "CC p99 us", "BG-2 p99 us");
        double crossover = 0.0;
        for (std::size_t r = 0; r < nr; ++r) {
            const ServeResult &cc = serve_results[t * per_theta + r];
            const ServeResult &bg =
                serve_results[t * per_theta + nr + r];
            std::printf("            %10.0f %12.1f %12.1f\n", rates[r],
                        cc.p(99.0), bg.p(99.0));
            if (crossover == 0.0 && cc.p(99.0) <= bg.p(99.0))
                crossover = rates[r];
            csv << "serve,CC,mslru," << thetas[t] << ','
                << kServeCacheMB << ',' << rates[r] << ",0,0,0,"
                << cc.p(50.0) << ',' << cc.p(99.0) << ','
                << cc.achievedRate << '\n';
            csv << "serve,BG-2,off," << thetas[t] << ",0," << rates[r]
                << ",0,0,0," << bg.p(50.0) << ',' << bg.p(99.0) << ','
                << bg.achievedRate << '\n';
        }
        if (crossover > 0.0)
            std::printf("  crossover: CC+cache p99 at or below BG-2 "
                        "from %.0f req/s\n",
                        crossover);
        else
            std::printf("  no crossover: BG-2 keeps the lower p99 at "
                        "every offered rate\n");
    }

    std::printf("\nWrote results/cache_sweep.csv\n");
    return 0;
}
