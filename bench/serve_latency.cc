/**
 * @file
 * Online serving: latency-vs-load curves for CC vs BG-2.
 *
 * Sweeps an open-loop Poisson arrival stream over a ladder of offered
 * rates on both platforms and prints, per platform, the throughput,
 * mean/p50/p95/p99 latency and SLO-violation curve — showing where
 * each platform saturates. The same rows land in
 * results/serve_latency.csv for external plotting.
 *
 * The paper evaluates offline throughput only; this is the serving
 * view of the same hardware gap: CC's host-centric prep path caps
 * its service rate an order of magnitude below BG-2's in-storage
 * pipeline, so its latency curve lifts off at a far lower load.
 */

#include "common.h"

#include <fstream>

#include "serve/report.h"
#include "serve/serve.h"

using namespace bench;
using namespace beacongnn::serve;

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    std::filesystem::create_directories("results");

    banner("Serving: latency vs offered load, amazon, CC vs BG-2");

    const std::vector<PlatformKind> kinds = {PlatformKind::CC,
                                             PlatformKind::BG2};
    const std::vector<double> rates = {1000,  2000,  5000,   10000,
                                       20000, 50000, 100000, 200000};

    ServeConfig sc;
    sc.arrivals.requests = 192;
    sc.arrivals.seed = 0x5EED;
    sc.policy.maxBatch = 32;
    sc.policy.timeout = sim::microseconds(200);

    RunConfig rc = defaultRun();
    const WorkloadBundle &b = bundle("amazon");

    const std::size_t nr = rates.size();
    auto results = parallelMap<ServeResult>(
        kinds.size() * nr, [&](std::size_t i) {
            ServeConfig point = sc;
            point.arrivals.ratePerSec = rates[i % nr];
            return serveWorkload(platforms::makePlatform(kinds[i / nr]),
                                 rc, b, point);
        });

    std::ofstream csv("results/serve_latency.csv");
    writeServeCsvHeader(csv);

    std::vector<double> sustained;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::vector<ServeResult> curve(results.begin() + k * nr,
                                       results.begin() + (k + 1) * nr);
        std::printf("\n%s on amazon (poisson, %llu requests, max "
                    "batch %u, timeout %llu us)\n",
                    curve.front().platform.c_str(),
                    static_cast<unsigned long long>(
                        sc.arrivals.requests),
                    sc.policy.maxBatch,
                    static_cast<unsigned long long>(sc.policy.timeout /
                                                    1000));
        printRateHeader();
        for (const ServeResult &r : curve) {
            printRateRow(r);
            writeServeCsvRow(csv, r);
        }
        sustained.push_back(printSaturation(curve));
    }

    std::printf("\nShape: CC's latency curve lifts off an order of "
                "magnitude below BG-2's;\nbeyond saturation the "
                "open-loop queue grows without bound and tail\n"
                "latency is set by the backlog, not the pipeline.\n");
    std::printf("Wrote results/serve_latency.csv\n");

    // The serving claim of the whole exercise: the in-storage
    // pipeline sustains strictly more open-loop load than the
    // CPU-centric baseline.
    if (sustained.size() == 2 && sustained[1] <= sustained[0]) {
        std::printf("FAIL: BG-2 sustained rate (%.0f) <= CC (%.0f)\n",
                    sustained[1], sustained[0]);
        return 1;
    }
    return 0;
}
