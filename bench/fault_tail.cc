/**
 * @file
 * Fault-tail sweep (DESIGN.md §17): an 8-device BG-2 array serving a
 * saturating open-loop stream while device 3 dies 1 ms in, over a
 * replication x read-disturbance grid. Replication 1 has nowhere to
 * reroute — every command whose primary is the dead device aborts, so
 * the stream fails (its nominal throughput is hollow: aborted
 * commands complete instantly) — while replication >= 2 absorbs the
 * kill through replica fallbacks at the throughput and tail-latency
 * cost the thru(%)/p99.9 columns quantify. Commands already in flight
 * on the dying device at the kill instant are lost at any replication
 * factor, exactly as a real device loss would lose them. A fault-free
 * baseline row anchors the comparison. Full grid lands in
 * results/fault_tail.csv.
 */

#include "common.h"

#include <fstream>

#include "serve/serve.h"

using namespace bench;

namespace {

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig sc;
    // Offered above the 8-device array's ~330k req/s service capacity:
    // every cell saturates, so achievedRate measures capacity and the
    // killed device shows up as lost throughput, not just a fatter
    // tail.
    sc.arrivals.requests = 1024;
    sc.arrivals.ratePerSec = 400000;
    return sc;
}

platforms::RunConfig
arrayRun(unsigned replication, double retry_prob, bool kill)
{
    platforms::RunConfig rc;
    rc.topology.devices = 8;
    rc.topology.replication = replication;
    rc.system.disturb.retryProb = retry_prob;
    if (kill)
        rc.kills.push_back(
            platforms::KillEvent{3, -1, sim::milliseconds(1)});
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    banner("Fault tail: replication x disturbance under a device kill");

    const auto &b = bundle("amazon");
    const std::vector<unsigned> reps = {1, 2, 3};
    const std::vector<double> retry_probs = {0.0, 0.01, 0.05};
    const std::size_t nf = retry_probs.size();
    const serve::ServeConfig sc = serveConfig();
    auto platform = [] {
        return platforms::makePlatform(platforms::PlatformKind::BG2);
    };

    // Cell 0 is the fault-free baseline; the grid follows.
    auto results = parallelMap<serve::ServeResult>(
        1 + reps.size() * nf, [&](std::size_t i) {
            platforms::RunConfig rc =
                i == 0 ? arrayRun(1, 0.0, false)
                       : arrayRun(reps[(i - 1) / nf],
                                  retry_probs[(i - 1) % nf], true);
            return serve::serveWorkload(platform(), rc, b, sc);
        });

    const serve::ServeResult &base = results[0];
    std::printf("fault-free baseline: %.0f req/s, p99.9 %.2f ms\n\n",
                base.achievedRate, base.p(99.9) / 1e3);
    std::printf("%5s %10s %10s %9s %9s %9s %10s %5s\n", "R",
                "retry-prob", "thru(r/s)", "thru(%)", "p99(ms)",
                "p99.9(ms)", "fallbacks", "ok");
    for (std::size_t i = 1; i < results.size(); ++i) {
        const serve::ServeResult &r = results[i];
        const std::vector<double> ps = r.percentiles({0.99, 0.999});
        std::printf("%5u %10.2f %10.0f %8.1f%% %9.2f %9.2f %10llu %5s\n",
                    reps[(i - 1) / nf], retry_probs[(i - 1) % nf],
                    r.achievedRate,
                    100.0 * r.achievedRate / base.achievedRate,
                    ps[0] / 1e3, ps[1] / 1e3,
                    static_cast<unsigned long long>(r.replicaFallbacks),
                    r.ok ? "yes" : "NO");
    }

    std::filesystem::create_directories("results");
    std::ofstream csv("results/fault_tail.csv");
    csv << "replication,retry_prob,killed,achieved_rps,thru_vs_"
           "baseline,p50_us,p99_us,p999_us,replica_fallbacks,ok\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const serve::ServeResult &r = results[i];
        const std::vector<double> ps =
            r.percentiles({0.5, 0.99, 0.999});
        csv << (i == 0 ? 1 : reps[(i - 1) / nf]) << ','
            << (i == 0 ? 0.0 : retry_probs[(i - 1) % nf]) << ','
            << (i == 0 ? 0 : 1) << ',' << r.achievedRate << ','
            << r.achievedRate / base.achievedRate << ',' << ps[0]
            << ',' << ps[1] << ',' << ps[2] << ','
            << r.replicaFallbacks << ',' << (r.ok ? 1 : 0) << '\n';
    }
    std::printf("\nwrote %zu row(s) to results/fault_tail.csv\n",
                results.size());

    std::printf("\nShape: replication 1 cannot survive the kill; "
                "replication >= 2 reroutes to\nsurviving replicas and "
                "trades throughput and a fatter tail for a live\n"
                "stream, with read retries inflating p99.9 further. "
                "Commands in flight on\nthe dying device at the kill "
                "instant are lost at any replication factor\n(an "
                "ok=NO cell with R >= 2 is that in-flight loss, not a "
                "routing gap).\n");
    return 0;
}
