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
 * same seed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/report.h"
#include "serve/serve.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

using namespace beacongnn;
using namespace beacongnn::serve;

namespace {

[[noreturn]] void
usage(const char *argv0, int status = 2)
{
    std::printf(
        "usage: %s [options]\n"
        "  --platform NAME[,NAME...]  platform list (default CC,BG-2)\n"
        "  --workload NAME[,NAME...]  workload list (default amazon)\n"
        "  --rates R[,R...]    offered arrival rates, req/s "
        "(default 500,1000,2000,4000)\n"
        "  --requests N        requests per stream (default 512)\n"
        "  --seed N            arrival-stream seed (default 0x5EED)\n"
        "  --arrival P         poisson|bursty (default poisson)\n"
        "  --burst-factor X    bursty: rate multiplier in bursts\n"
        "  --max-batch N       micro-batch dispatch threshold "
        "(default 32)\n"
        "  --timeout-us N      micro-batch timeout (default 200)\n"
        "  --tenants N         tenant count; QoS class = tenant %% 3\n"
        "  --model NAME[,NAME...]  serve this model mix: each request "
        "runs the\n"
        "                      model of its tenant (tenant %% count); "
        "gcn|gin|gat\n"
        "  --slo-ms A,B,C      per-class SLO targets, ms "
        "(default 5,20,100)\n"
        "  --nodes N           override the workload's node count\n"
        "  --devices N         SSDs in a scale-out array (default 1; "
        ">1 needs a streaming platform)\n"
        "  --p2p-mbps X        per-device P2P link bandwidth "
        "(default 4000)\n"
        "  --p2p-latency-us X  P2P hop latency in us (default 1; the "
        "parallel simulator's lookahead)\n"
        "  --partition NAME    hash|range|balanced graph partition "
        "(default hash)\n"
        "  --replication N     replicas per node (chained "
        "declustering, clamped to --devices; default 1)\n"
        "  --retry-prob X      per-die flash read-retry probability "
        "scale (default 0 = off)\n"
        "  --die-kill SPEC[,SPEC...]  kill schedule: DEV@US kills a "
        "whole device,\n"
        "                      DEV.DIE@US one die, at US "
        "microseconds\n"
        "  --cache-mb X        per-device DRAM vertex cache capacity "
        "in MiB (default 0 = off)\n"
        "  --cache-policy NAME lru|mslru|fifo eviction policy "
        "(default lru)\n"
        "  --zipf-theta X      Zipf(theta) skew of request targets "
        "(default 0 = uniform)\n"
        "  --channels N / --dies N   SSD geometry\n"
        "  --jobs N            parallel workers: sweep points, and the "
        "device queues within one multi-device run\n"
        "  --csv FILE          append CSV rows to FILE\n"
        "  --breakdown         print per-QoS-class breakdown per rate\n"
        "  --metrics FILE      dump every instrument as JSON\n"
        "  --metrics-csv FILE  dump every instrument as CSV\n"
        "  --trace FILE        Chrome-trace event file (single sweep "
        "point only)\n",
        argv0);
    std::exit(status);
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string platform_list = "CC,BG-2";
    std::string workload_list = "amazon";
    std::string rate_list = "500,1000,2000,4000";
    std::string slo_list;
    std::string csv_path, metrics_path, metrics_csv_path, trace_path;
    graph::NodeId nodes = 0;
    bool breakdown = false;

    platforms::RunConfig rc;
    ServeConfig sc;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--platform") platform_list = next();
        else if (a == "--workload") workload_list = next();
        else if (a == "--rates") rate_list = next();
        else if (a == "--requests") sc.arrivals.requests =
            std::strtoull(next(), nullptr, 10);
        else if (a == "--seed") sc.arrivals.seed =
            std::strtoull(next(), nullptr, 10);
        else if (a == "--arrival") {
            std::string p = next();
            if (p == "poisson")
                sc.arrivals.process = ArrivalProcess::Poisson;
            else if (p == "bursty")
                sc.arrivals.process = ArrivalProcess::Bursty;
            else {
                std::fprintf(stderr,
                             "bgnserve: unknown arrival process '%s' "
                             "(valid: poisson, bursty)\n",
                             p.c_str());
                return 2;
            }
        }
        else if (a == "--burst-factor") sc.arrivals.burstFactor =
            std::strtod(next(), nullptr);
        else if (a == "--max-batch") sc.policy.maxBatch =
            static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
        else if (a == "--timeout-us") sc.policy.timeout =
            sim::microseconds(std::strtoull(next(), nullptr, 10));
        else if (a == "--tenants") sc.arrivals.tenants =
            static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
        else if (a == "--model") {
            sc.models.clear();
            for (const auto &n : splitList(next())) {
                auto k = gnn::findModelKind(n);
                if (!k) {
                    std::fprintf(stderr,
                                 "bgnserve: unknown model '%s' "
                                 "(valid: %s)\n",
                                 n.c_str(),
                                 gnn::modelKindList().c_str());
                    return 2;
                }
                sc.models.push_back(*k);
            }
            if (sc.models.empty()) {
                std::fprintf(stderr,
                             "bgnserve: --model needs at least one "
                             "name (valid: %s)\n",
                             gnn::modelKindList().c_str());
                return 2;
            }
        }
        else if (a == "--slo-ms") slo_list = next();
        else if (a == "--nodes") nodes = static_cast<graph::NodeId>(
            std::strtoul(next(), nullptr, 10));
        else if (a == "--devices") rc.topology.devices =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--p2p-mbps") rc.topology.p2pMBps =
            std::strtod(next(), nullptr);
        else if (a == "--p2p-latency-us") rc.topology.p2pLatency =
            sim::microseconds(static_cast<sim::Tick>(
                std::strtoul(next(), nullptr, 10)));
        else if (a == "--partition") {
            std::string n = next();
            auto p = platforms::findPartitionPolicy(n);
            if (!p) {
                std::fprintf(stderr,
                             "bgnserve: unknown partition '%s' "
                             "(valid: %s)\n",
                             n.c_str(),
                             platforms::partitionPolicyList().c_str());
                return 2;
            }
            rc.topology.partition = *p;
        }
        else if (a == "--replication") rc.topology.replication =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--retry-prob") {
            rc.system.disturb.retryProb = std::strtod(next(), nullptr);
            if (rc.system.disturb.retryProb < 0.0 ||
                rc.system.disturb.retryProb > 1.0) {
                std::fprintf(stderr, "bgnserve: --retry-prob must be "
                                     "in [0, 1]\n");
                return 2;
            }
        }
        else if (a == "--die-kill") {
            for (const std::string &spec : splitList(next())) {
                auto k = platforms::parseKillEvent(spec);
                if (!k) {
                    std::fprintf(stderr,
                                 "bgnserve: bad --die-kill '%s' (want "
                                 "DEV@US or DEV.DIE@US)\n",
                                 spec.c_str());
                    return 2;
                }
                rc.kills.push_back(*k);
            }
        }
        else if (a == "--cache-mb") {
            rc.cache.capacityMB = std::strtod(next(), nullptr);
            if (rc.cache.capacityMB <= 0.0) {
                std::fprintf(stderr,
                             "bgnserve: --cache-mb must be positive "
                             "(omit the flag to disable the cache)\n");
                return 2;
            }
        }
        else if (a == "--cache-policy") {
            std::string n = next();
            auto p = cache::findCachePolicy(n);
            if (!p) {
                std::fprintf(stderr,
                             "bgnserve: unknown cache policy '%s' "
                             "(valid: %s)\n",
                             n.c_str(),
                             cache::cachePolicyList().c_str());
                return 2;
            }
            rc.cache.policy = *p;
        }
        else if (a == "--zipf-theta") {
            sc.arrivals.zipfTheta = std::strtod(next(), nullptr);
            if (sc.arrivals.zipfTheta <= 0.0) {
                std::fprintf(stderr,
                             "bgnserve: --zipf-theta must be positive "
                             "(omit the flag for uniform targets)\n");
                return 2;
            }
        }
        else if (a == "--channels") rc.system.flash.channels =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--dies") rc.system.flash.diesPerChannel =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--jobs") {
            long v = std::strtol(next(), nullptr, 10);
            if (v >= 1)
                sim::SimExecutor::setDefaultJobs(
                    static_cast<unsigned>(v));
        }
        else if (a == "--csv") csv_path = next();
        else if (a == "--metrics") metrics_path = next();
        else if (a == "--metrics-csv") metrics_csv_path = next();
        else if (a == "--trace") trace_path = next();
        else if (a == "--breakdown") breakdown = true;
        else if (a == "--help" || a == "-h") usage(argv[0], 0);
        else {
            std::fprintf(stderr, "bgnserve: unknown option '%s'\n",
                         a.c_str());
            usage(argv[0]);
        }
    }

    // Resolve the sweep axes up front so bad names fail fast with the
    // valid choices, before any expensive layout build.
    std::vector<platforms::PlatformKind> kinds;
    for (const auto &n : splitList(platform_list)) {
        auto k = platforms::findPlatform(n);
        if (!k) {
            std::fprintf(stderr,
                         "bgnserve: unknown platform '%s' (valid: %s)\n",
                         n.c_str(),
                         platforms::platformNameList().c_str());
            return 2;
        }
        kinds.push_back(*k);
    }
    std::vector<const graph::WorkloadSpec *> specs;
    for (const auto &n : splitList(workload_list)) {
        const graph::WorkloadSpec *w = graph::findWorkload(n);
        if (!w) {
            std::fprintf(stderr,
                         "bgnserve: unknown workload '%s' (valid: %s)\n",
                         n.c_str(), graph::workloadNameList().c_str());
            return 2;
        }
        specs.push_back(w);
    }
    std::vector<double> rates;
    for (const auto &r : splitList(rate_list)) {
        double v = std::strtod(r.c_str(), nullptr);
        if (v <= 0) {
            std::fprintf(stderr, "bgnserve: bad rate '%s'\n", r.c_str());
            return 2;
        }
        rates.push_back(v);
    }
    if (kinds.empty() || specs.empty() || rates.empty())
        usage(argv[0]);
    if (rc.topology.devices == 0) {
        std::fprintf(stderr, "bgnserve: --devices must be >= 1\n");
        return 2;
    }
    if (rc.topology.replication == 0) {
        std::fprintf(stderr, "bgnserve: --replication must be >= 1\n");
        return 2;
    }
    for (const platforms::KillEvent &k : rc.kills) {
        if (k.device >= rc.topology.devices) {
            std::fprintf(stderr,
                         "bgnserve: --die-kill names device %u of a "
                         "%u-device topology\n",
                         k.device, rc.topology.devices);
            return 2;
        }
    }
    if (rc.topology.multi()) {
        for (platforms::PlatformKind k : kinds) {
            auto p = platforms::makePlatform(k);
            if (!p.flags.directGraph) {
                std::fprintf(stderr,
                             "bgnserve: --devices %u needs a streaming "
                             "(DirectGraph) platform; '%s' is not\n",
                             rc.topology.devices, p.name.c_str());
                return 2;
            }
        }
    }
    if (!slo_list.empty()) {
        auto parts = splitList(slo_list);
        if (parts.size() != kQosClasses) {
            std::fprintf(stderr,
                         "bgnserve: --slo-ms needs %zu values\n",
                         kQosClasses);
            return 2;
        }
        for (std::size_t q = 0; q < kQosClasses; ++q)
            sc.slo.target[q] = sim::milliseconds(
                std::strtoull(parts[q].c_str(), nullptr, 10));
    }

    if (!sc.models.empty())
        sc.arrivals.modelCount =
            static_cast<std::uint32_t>(sc.models.size());

    // One bundle per workload, shared read-only across the sweep.
    gnn::ModelConfig model;
    std::vector<std::unique_ptr<platforms::WorkloadBundle>> bundles;
    for (const auto *w : specs)
        bundles.push_back(
            platforms::makeBundle(*w, rc.system.flash, model, nodes));

    const std::size_t nr = rates.size();
    const std::size_t nw = specs.size();
    const std::size_t total = kinds.size() * nw * nr;

    if (!trace_path.empty() && total != 1) {
        std::fprintf(stderr, "bgnserve: --trace requires a single "
                             "sweep point\n");
        return 2;
    }
    const bool want_metrics =
        !metrics_path.empty() || !metrics_csv_path.empty();
    std::vector<sim::MetricRegistry> regs(want_metrics ? total : 0);
    sim::TraceSink sink;
    if (!trace_path.empty())
        rc.traceSink = &sink;

    sim::SimExecutor ex;
    if (total > 1)
        // stderr: stdout stays byte-identical across worker counts.
        std::fprintf(stderr, "bgnserve: %zu-point sweep on %u worker(s)\n",
                     total, ex.jobs());
    auto results = ex.map<ServeResult>(total, [&](std::size_t i) {
        std::size_t k = i / (nw * nr);
        std::size_t w = (i / nr) % nw;
        std::size_t r = i % nr;
        ServeConfig point = sc;
        point.arrivals.ratePerSec = rates[r];
        return serveWorkload(platforms::makePlatform(kinds[k]), rc,
                             *bundles[w], point, nullptr,
                             want_metrics ? &regs[i] : nullptr);
    });

    std::ofstream csv;
    if (!csv_path.empty()) {
        bool fresh = !std::ifstream(csv_path).good();
        csv.open(csv_path, std::ios::app);
        if (fresh)
            writeServeCsvHeader(csv);
    }

    bool ok = true;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (std::size_t w = 0; w < nw; ++w) {
            const auto *first = &results[(k * nw + w) * nr];
            std::printf("\n%s on %s (%s arrivals, %llu requests, "
                        "max batch %u, timeout %llu us, seed %llu)\n",
                        first->platform.c_str(), first->workload.c_str(),
                        arrivalName(sc.arrivals.process),
                        static_cast<unsigned long long>(
                            sc.arrivals.requests),
                        sc.policy.maxBatch,
                        static_cast<unsigned long long>(
                            sc.policy.timeout / 1000),
                        static_cast<unsigned long long>(
                            sc.arrivals.seed));
            printRateHeader();
            std::vector<ServeResult> curve;
            for (std::size_t r = 0; r < nr; ++r) {
                const ServeResult &res = results[(k * nw + w) * nr + r];
                ok = ok && res.ok;
                printRateRow(res);
                printDegraded(res);
                if (breakdown)
                    printClassBreakdown(res);
                if (csv.is_open())
                    writeServeCsvRow(csv, res);
                curve.push_back(res);
            }
            printSaturation(curve);
            if (!sc.models.empty()) {
                const ServeResult &last = curve.back();
                std::printf("  model mix (last rate):");
                for (std::size_t m = 0;
                     m < last.perModelRequests.size(); ++m)
                    std::printf(" %s %llu",
                                gnn::modelKindName(sc.models[m]),
                                static_cast<unsigned long long>(
                                    last.perModelRequests[m]));
                std::printf(" request(s)\n");
            }
            if (first->devices > 1) {
                const ServeResult &last = curve.back();
                std::printf("  array: %u devices, command share",
                            last.devices);
                for (std::size_t d = 0; d < last.perDevice.size(); ++d)
                    std::printf(" dev%zu %.2f", d, last.deviceShare(d));
                std::printf(", cross-device %.1f%%\n",
                            100.0 * last.crossFraction);
            }
        }
    }
    if (csv.is_open())
        std::printf("\nappended %zu CSV row(s) to %s\n", total,
                    csv_path.c_str());

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        out << "{\"runs\": [";
        for (std::size_t i = 0; i < total; ++i) {
            out << (i == 0 ? "\n" : ",\n");
            out << "{\"platform\": \"" << results[i].platform
                << "\", \"workload\": \"" << results[i].workload
                << "\", \"offered_rate\": " << results[i].offeredRate
                << ", \"metrics\": ";
            regs[i].writeJson(out);
            out << "}";
        }
        out << "\n]}\n";
        std::printf("wrote metrics snapshot to %s\n",
                    metrics_path.c_str());
    }
    if (!metrics_csv_path.empty()) {
        std::ofstream out(metrics_csv_path);
        sim::MetricRegistry::writeCsvHeader(out, "platform,workload,");
        for (std::size_t i = 0; i < total; ++i)
            regs[i].writeCsv(out, results[i].platform + "," +
                                      results[i].workload + ",");
        std::printf("wrote metrics CSV to %s\n",
                    metrics_csv_path.c_str());
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        sink.write(out);
        std::printf("wrote %zu trace event(s) to %s%s\n",
                    sink.events(), trace_path.c_str(),
                    sink.dropped() ? " (truncated)" : "");
    }
    return ok ? 0 : 1;
}
