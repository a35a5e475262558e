/**
 * @file
 * bgnserve — online serving driver for the BeaconGNN simulator.
 *
 * Sweeps platform x workload x arrival-rate points of an open-loop
 * serving experiment and prints, per (platform, workload), a
 * latency-vs-load table with throughput, mean/p50/p95/p99 latency
 * and SLO-violation rates, plus the saturation rate each platform
 * sustains:
 *
 *   bgnserve --platform CC,BG2 --workload amazon \
 *            --rates 500,1000,2000,4000 --requests 512 --seed 7 \
 *            --max-batch 32 --timeout-us 200 --jobs 8
 *
 * Sweep points run in parallel on --jobs workers (BGN_JOBS env var /
 * hardware cores by default); output is in deterministic sweep order
 * and byte-identical across worker counts and repeated runs with the
 * same seed. The shared flags, checks and writers live in
 * run_options.h (DESIGN.md §18).
 */

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "run_options.h"
#include "serve/report.h"

using namespace beacongnn;
using namespace beacongnn::serve;
using namespace beacongnn::tools;

namespace {

std::optional<ArrivalProcess>
findArrival(const std::string &name)
{
    for (ArrivalProcess p : {ArrivalProcess::Poisson, ArrivalProcess::Bursty})
        if (name == arrivalName(p))
            return p;
    return std::nullopt;
}

} // namespace

namespace beacongnn::tools {

ServeOptions::ServeOptions()
{
    kinds = {platforms::PlatformKind::CC, platforms::PlatformKind::BG2};
}

FlagTable
serveFlags(ServeOptions &o)
{
    FlagTable t = sharedFlags(o);
    ArrivalConfig &a = o.serve.arrivals;
    t.insert(t.end(), {
        {"--rates", "R[,R...]",
         "offered arrival rates, req/s (default 500,1000,2000,4000)",
         [&o](const std::string &flag, const std::string &value) {
             o.rates.clear();
             for (const std::string &r : splitList(value)) {
                 double &v = o.rates.emplace_back();
                 std::string err = parseReal(flag, r, true, v);
                 // The mean gap, 1e9 / rate ticks, must fit sim::Tick.
                 if (err.empty() &&
                     1e9 / v >= static_cast<double>(sim::kTickMax))
                     err = bad(flag, r, "mean arrival gap overflows");
                 if (!err.empty())
                     return err;
             }
             return o.rates.empty() ? flag + " needs at least one rate"
                                    : std::string();
         }},
        {"--requests", "N", "requests per stream (default 512)",
         natural(a.requests)},
        {"--seed", "N", "arrival-stream seed (default 24301 = 0x5EED)",
         natural(a.seed)},
        {"--arrival", "P", "poisson|bursty (default poisson)",
         oneOf(a.process, "arrival process", findArrival,
               [] { return std::string("poisson, bursty"); })},
        {"--burst-factor", "X", "bursty: rate multiplier in bursts "
                                "(default 8)",
         real(a.burstFactor, true)},
        {"--max-batch", "N", "micro-batch dispatch threshold (default 32)",
         natural(o.serve.policy.maxBatch)},
        {"--timeout-us", "N", "micro-batch timeout (default 200)",
         natural(o.serve.policy.timeout, sim::microseconds(1))},
        {"--tenants", "N", "tenant count; QoS class = tenant % 3",
         natural(a.tenants)},
        {"--model", "NAME[,NAME...]",
         "serve this gcn|gin|gat mix: each request runs the model of "
         "its tenant (tenant % count)",
         listOf(o.serve.models, "model", gnn::findModelKind,
                gnn::modelKindList)},
        {"--slo-ms", "A,B,C", "per-class SLO targets, ms (default 5,20,100)",
         [&o](const std::string &flag, const std::string &value) {
             const std::vector<std::string> parts = splitList(value);
             if (parts.size() != kQosClasses)
                 return flag + " needs " + std::to_string(kQosClasses) +
                        " values";
             for (std::size_t q = 0; q < kQosClasses; ++q)
                 if (std::string err = parseNatural(
                         flag, parts[q], sim::kTickMax,
                         sim::milliseconds(1), 0, o.serve.slo.target[q]);
                     !err.empty())
                     return err;
             return std::string();
         }},
        {"--zipf-theta", "X",
         "Zipf(theta) skew of request targets (default 0 = uniform)",
         positive(a.zipfTheta, "omit the flag for uniform targets")},
        {"--breakdown", nullptr, "print per-QoS-class breakdown per rate",
         enable(o.breakdown)},
    });
    return t;
}

} // namespace beacongnn::tools

// main() and the result printing; tests link only the table above.
#ifndef BGN_NO_MAIN

int
main(int argc, char **argv)
{
    const char *const tool = "bgnserve";
    ServeOptions o;
    parseOrExit(tool, serveFlags(o), argc, argv,
                [&] { return check(o, o.rates.size()); });
    const std::size_t nr = o.rates.size();
    // bgnserve has no sampling-shape flags: bundles use the default model.
    Grid grid(o, gnn::ModelConfig{}, nr);
    const std::vector<ServeResult> results =
        grid.run<ServeResult>(tool, [&](const Grid::Cell &c) {
            ServeConfig point = o.serve;
            point.arrivals.ratePerSec = o.rates[c.point];
            return serveWorkload(platforms::makePlatform(c.platform), o.run,
                                 c.bundle, point, nullptr, c.metrics);
        });

    bool ok = true;
    const ServeConfig &sc = o.serve;
    for (std::size_t first = 0; first < results.size(); first += nr) {
        const std::vector<ServeResult> curve(
            results.begin() + static_cast<std::ptrdiff_t>(first),
            results.begin() + static_cast<std::ptrdiff_t>(first + nr));
        std::printf("\n%s on %s (%s arrivals, %llu requests, "
                    "max batch %u, timeout %llu us, seed %llu)\n",
                    curve[0].platform.c_str(), curve[0].workload.c_str(),
                    arrivalName(sc.arrivals.process),
                    static_cast<unsigned long long>(sc.arrivals.requests),
                    sc.policy.maxBatch,
                    static_cast<unsigned long long>(sc.policy.timeout /
                                                    1000),
                    static_cast<unsigned long long>(sc.arrivals.seed));
        printRateHeader();
        for (const ServeResult &res : curve) {
            ok = ok && res.ok;
            printRateRow(res);
            printDegraded(res);
            if (o.breakdown)
                printClassBreakdown(res);
        }
        printSaturation(curve);
        const ServeResult &last = curve.back();
        if (!sc.models.empty()) {
            std::printf("  model mix (last rate):");
            for (std::size_t m = 0; m < last.perModelRequests.size(); ++m)
                std::printf(" %s %llu", gnn::modelKindName(sc.models[m]),
                            static_cast<unsigned long long>(
                                last.perModelRequests[m]));
            std::printf(" request(s)\n");
        }
        if (curve[0].devices > 1) {
            std::printf("  array: %u devices, command share",
                        last.devices);
            for (std::size_t d = 0; d < last.perDevice.size(); ++d)
                std::printf(" dev%zu %.2f", d, last.deviceShare(d));
            std::printf(", cross-device %.1f%%\n",
                        100.0 * last.crossFraction);
        }
    }
    grid.appendCsv("\n", writeServeCsvHeader,
                   [&](std::ostream &out, std::size_t i) {
                       writeServeCsvRow(out, results[i]);
                   });
    grid.writeOutputs("", [&](std::size_t i) {
        std::ostringstream rate;
        rate << results[i].offeredRate;
        return ", \"offered_rate\": " + rate.str();
    });
    return ok ? 0 : 1;
}

#endif // BGN_NO_MAIN
