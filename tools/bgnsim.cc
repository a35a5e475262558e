/**
 * @file
 * bgnsim — command-line driver for the BeaconGNN simulator.
 *
 * Runs any platform on any workload with any system configuration
 * without writing code:
 *
 *   bgnsim --platform BG-2 --workload amazon --batches 4 \
 *          --batch-size 128 --channels 16 --dies 8 --cores 4 \
 *          --page-kb 4 --channel-mbps 800 --traditional \
 *          --nodes 30000 --trace-util --csv out.csv
 *
 * Prints a human-readable summary; optionally appends a CSV row for
 * scripting sweeps. --platform and --workload accept comma-separated
 * lists; the resulting grid runs in parallel on --jobs workers
 * (BGN_JOBS env var / hardware cores by default) with output in
 * deterministic grid order. --algo runs a vertex program on the same
 * grid instead of GNN inference.
 *
 * Observability (DESIGN.md §10): --metrics/--metrics-csv dump every
 * registered instrument of every run; --trace (single run only)
 * writes a Chrome-trace-format event file loadable in Perfetto. The
 * shared flags, checks and writers live in run_options.h (§18).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "platforms/algo_runner.h"
#include "platforms/report.h"
#include "run_options.h"

using namespace beacongnn;
using namespace beacongnn::platforms;
using namespace beacongnn::tools;

namespace beacongnn::tools {

SimOptions::SimOptions()
{
    kinds = {PlatformKind::BG2};
    run.batchSize = 128;
}

FlagTable
simFlags(SimOptions &o)
{
    FlagTable t = sharedFlags(o);
    flash::FlashConfig &fc = o.run.system.flash;
    gnn::ModelConfig &m = o.model;
    t.insert(t.end(), {
        {"--batches", "N", "mini-batches to run (default 4)",
         natural(o.run.batches)},
        {"--batch-size", "N", "targets per mini-batch (default 128)",
         natural(o.run.batchSize)},
        {"--hops", "N", "GNN sampling depth (default 3)", natural(m.hops)},
        {"--fanout", "N", "neighbours sampled per node and hop (default 3)",
         natural(m.fanout)},
        {"--model", "NAME", "gcn|gin|gat aggregate/combine pair "
                            "(default gcn)",
         oneOf(m.kind, "model", gnn::findModelKind, gnn::modelKindList)},
        {"--fanouts", "N[,N...]",
         "per-hop fanout schedule (overrides --fanout)",
         [&m](const std::string &flag, const std::string &value) {
             auto f = gnn::parseFanouts(value);
             if (!f)
                 return bad(flag, value,
                            "want a comma-separated list of 1..255");
             m.fanouts = std::move(*f);
             m.normalizeFanouts();
             return std::string();
         }},
        {"--algo", "NAME",
         "pagerank|bfs|kcore vertex program, iterated to convergence, "
         "instead of GNN inference",
         oneOf(o.algo, "algo", gnn::findAlgoKind, gnn::algoKindList)},
        {"--cores", "N", "SSD controller cores (default 4)",
         natural(o.run.system.controller.cores)},
        {"--page-kb", "N", "flash page size in KiB (default 4)",
         natural(fc.pageSize, sim::kib(1), 1)},
        {"--channel-mbps", "X", "channel bandwidth (default 800)",
         real(fc.channelMBps)},
        {"--traditional", nullptr, "20 us flash instead of 3 us ULL",
         [&fc](const std::string &, const std::string &) {
             fc.readLatency = sim::microseconds(20);
             return std::string();
         }},
        {"--dedupe", nullptr, "batch-level node deduplication",
         enable(o.dedupe)},
        {"--no-coalesce", nullptr, "disable secondary coalescing",
         enable(o.noCoalesce)},
        {"--seed", "N", "target-selection seed",
         natural(o.run.targetSeed)},
        {"--zipf-theta", "X",
         "Zipf(theta) skew of the target stream (default 0 = uniform)",
         positive(o.run.zipfTheta, "omit the flag for uniform targets")},
        {"--trace-util", nullptr, "collect utilization series",
         enable(o.run.traceUtilization)},
    });
    return t;
}

} // namespace beacongnn::tools

// main() and the result printing; tests link only the table above.
#ifndef BGN_NO_MAIN

namespace {

const char *const kTool = "bgnsim";

/** check() plus the subgraph-size rule: a batch's full subgraphs must
 *  fit the devices' slot space, or the engine stops the run with a
 *  fatal error. Vertex programs (--algo) sample hops 0 and are
 *  exempt. */
std::string
checkSim(const SimOptions &o)
{
    std::string err = check(o);
    const std::uint64_t batch = o.run.batchSize;
    const std::uint64_t nodes = o.model.subgraphNodes();
    const std::uint64_t slots = std::uint64_t{o.run.topology.devices} *
                                engines::GnnEngine::kSlotsPerDevice;
    if (err.empty() && !o.algo && batch > 0 && nodes > slots / batch)
        err = "--hops " + std::to_string(o.model.hops) + ": " +
              std::to_string(batch) + " targets x " +
              std::to_string(nodes) + " subgraph nodes exceed the " +
              std::to_string(slots) + " slots of " +
              std::to_string(o.run.topology.devices) + " device(s)";
    return err;
}

PlatformConfig
configured(const SimOptions &o, PlatformKind kind)
{
    PlatformConfig p = makePlatform(kind);
    p.flags.dedupeNodes = o.dedupe;
    p.flags.coalesceSecondary = !o.noCoalesce;
    return p;
}

int
runGnn(const SimOptions &o, Grid &grid)
{
    const std::vector<RunResult> results =
        grid.run<RunResult>(kTool, [&](const Grid::Cell &c) {
            return runPlatform(configured(o, c.platform), o.run, c.bundle,
                               c.metrics);
        });
    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const WorkloadBundle &b = grid.bundleOf(i);
        ok = ok && r.ok;
        std::printf("bgnsim: %s on %s (%u nodes, avg degree %.0f, "
                    "%u-dim features)\n",
                    r.platform.c_str(), b.name.c_str(),
                    b.graph.numNodes(), b.graph.avgDegree(),
                    b.features.dim());
        std::printf("%s\n", summaryLine(r).c_str());
        std::printf("  prep %.2f ms | die util %.3f | channel util "
                    "%.3f | core util %.3f\n",
                    sim::toMillis(r.prepTime), r.dieUtil,
                    r.channelUtil, r.coreUtil);
        std::printf("  flash reads %llu | channel %.1f MB | PCIe "
                    "%.1f MB | aborted %llu\n",
                    static_cast<unsigned long long>(r.tally.flashReads),
                    static_cast<double>(r.tally.channelBytes) / 1048576.0,
                    static_cast<double>(r.tally.pcieBytes) / 1048576.0,
                    static_cast<unsigned long long>(
                        r.tally.abortedCommands));
        std::printf("  cmd lifetime %.1f us (wait %.1f + flash %.1f "
                    "+ wait %.1f)\n",
                    r.cmdStats.lifetime.mean(), r.cmdStats.waitBefore.mean(),
                    r.cmdStats.flashTime.mean(), r.cmdStats.waitAfter.mean());
        if (r.devices > 1) {
            std::uint64_t lo = ~0ull, hi = 0;
            for (const auto &d : r.perDevice) {
                lo = std::min(lo, d.commands);
                hi = std::max(hi, d.commands);
            }
            std::printf("  array: %u devices (%s) | cross-device "
                        "%.1f%% | per-device commands %llu..%llu\n",
                        r.devices,
                        partitionPolicyName(o.run.topology.partition),
                        100.0 * r.crossFraction,
                        static_cast<unsigned long long>(lo),
                        static_cast<unsigned long long>(hi));
        }
    }
    grid.appendCsv("  ", writeCsvHeader,
                   [&](std::ostream &out, std::size_t i) {
                       writeCsvRow(out, results[i]);
                   });
    grid.writeOutputs("  ");
    return ok ? 0 : 1;
}

/** Vertex-program mode: iterate-until-convergence supersteps instead
 *  of fixed mini-batches, on the same platform x workload grid. */
int
runAlgo(const SimOptions &o, Grid &grid)
{
    AlgoRunConfig ac;
    ac.program.algo = *o.algo;
    const std::vector<AlgoRunResult> results =
        grid.run<AlgoRunResult>(kTool, [&](const Grid::Cell &c) {
            return runVertexProgram(configured(o, c.platform), o.run,
                                    c.bundle, ac, c.metrics);
        });
    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const AlgoRunResult &r = results[i];
        const WorkloadBundle &b = grid.bundleOf(i);
        ok = ok && r.ok;
        std::printf("bgnsim: %s on %s via %s (%u nodes, avg "
                    "degree %.0f)\n",
                    r.algo.c_str(), b.name.c_str(), r.platform.c_str(),
                    b.graph.numNodes(), b.graph.avgDegree());
        std::printf("  %s in %u superstep(s) | %llu frontier "
                    "reads | %.2f ms | %.2f Knodes/s | checksum "
                    "%.6g\n",
                    r.converged ? "converged" : "iteration cap",
                    r.iterations,
                    static_cast<unsigned long long>(r.frontierNodes),
                    sim::toMillis(r.totalTime), r.throughput / 1e3,
                    r.checksum);
    }
    grid.appendCsv(
        "  ",
        [](std::ostream &out) {
            out << "platform,workload,algo,ok,converged,iterations,"
                   "frontier_nodes,total_time_us,frontier_per_sec,"
                   "checksum,devices\n";
        },
        [&](std::ostream &out, std::size_t i) {
            const AlgoRunResult &r = results[i];
            out << r.platform << ',' << r.workload << ',' << r.algo << ','
                << (r.ok ? 1 : 0) << ',' << (r.converged ? 1 : 0) << ','
                << r.iterations << ',' << r.frontierNodes << ','
                << sim::toMicros(r.totalTime) << ',' << r.throughput
                << ',' << r.checksum << ',' << r.devices << '\n';
        });
    grid.writeOutputs("  ", [&](std::size_t i) {
        return ", \"algo\": \"" + results[i].algo + "\"";
    });
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions o;
    parseOrExit(kTool, simFlags(o), argc, argv, [&] { return checkSim(o); });
    Grid grid(o, o.model);
    return o.algo ? runAlgo(o, grid) : runGnn(o, grid);
}

#endif // BGN_NO_MAIN
