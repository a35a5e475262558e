/**
 * @file
 * Model zoo sweep (DESIGN.md §15): every model-zoo entry (gcn, gin,
 * gat) and every vertex program (pagerank, bfs, kcore) on the
 * CPU-centric baseline and the full BeaconGNN pipeline, one unified
 * CSV (results/model_zoo.csv). The GNN half reports mini-batch
 * throughput and the per-kind compute volume (MACs and per-edge ops)
 * the accelerator timed; the algorithm half reports supersteps to
 * convergence and frontier-read throughput over the same in-storage
 * session, so the speedup story carries from GNN inference to
 * classical graph analytics.
 */

#include "common.h"

#include <fstream>

#include "platforms/algo_runner.h"
#include "sim/metrics.h"

using namespace bench;

namespace {

constexpr const char *kWorkload = "amazon";
constexpr graph::NodeId kNodes = 4000;

const std::vector<PlatformKind> &
zooPlatforms()
{
    static const std::vector<PlatformKind> kinds = {PlatformKind::CC,
                                                    PlatformKind::BG2};
    return kinds;
}

std::unique_ptr<WorkloadBundle>
zooBundle(const gnn::ModelConfig &model, const RunConfig &rc)
{
    graph::WorkloadSpec spec = graph::workload(kWorkload);
    spec.simNodes = kNodes;
    return platforms::makeBundle(spec, rc.system.flash, model);
}

} // namespace

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    banner("Model zoo: GNN kinds and vertex programs x platforms");

    RunConfig rc = defaultRun();
    rc.batchSize = 64;
    rc.batches = 4;

    std::filesystem::create_directories("results");
    std::ofstream csv("results/model_zoo.csv");
    csv << "mode,name,platform,workload,units,unit_kind,"
           "total_time_us,throughput,macs,edge_ops,iterations,"
           "converged,checksum\n";

    // ---- GNN model kinds ------------------------------------------
    const std::vector<gnn::ModelKind> kinds = {gnn::ModelKind::GCN,
                                               gnn::ModelKind::GIN,
                                               gnn::ModelKind::GAT};
    std::printf("%-6s %-6s %10s %12s %14s %12s\n", "model", "plat",
                "time(ms)", "targets/s", "macs", "edge-ops");
    struct ModelPoint
    {
        RunResult r;
        std::uint64_t macs = 0;
        std::uint64_t edgeOps = 0;
    };
    const std::size_t np = zooPlatforms().size();
    auto model_points =
        parallelMap<ModelPoint>(kinds.size() * np, [&](std::size_t i) {
            gnn::ModelConfig m = defaultModel();
            m.kind = kinds[i / np];
            auto b = zooBundle(m, rc);
            ModelPoint p;
            p.r = runPlatform(
                platforms::makePlatform(zooPlatforms()[i % np]), rc,
                *b);
            gnn::ComputeWorkload w = m.workFor(rc.batchSize);
            p.macs = w.totalMacs() * rc.batches;
            p.edgeOps = w.edgeOps * rc.batches;
            return p;
        });
    for (std::size_t i = 0; i < model_points.size(); ++i) {
        const ModelPoint &p = model_points[i];
        std::printf("%-6s %-6s %10.2f %12.0f %14llu %12llu\n",
                    gnn::modelKindName(kinds[i / np]),
                    p.r.platform.c_str(), sim::toMillis(p.r.totalTime),
                    p.r.throughput,
                    static_cast<unsigned long long>(p.macs),
                    static_cast<unsigned long long>(p.edgeOps));
        csv << "model," << gnn::modelKindName(kinds[i / np]) << ','
            << p.r.platform << ',' << p.r.workload << ','
            << p.r.targets << ",targets,"
            << sim::toMicros(p.r.totalTime) << ',' << p.r.throughput
            << ',' << p.macs << ',' << p.edgeOps << ",,,\n";
    }
    rule();

    // ---- Vertex programs ------------------------------------------
    const std::vector<gnn::AlgoKind> algos = {gnn::AlgoKind::PageRank,
                                              gnn::AlgoKind::Bfs,
                                              gnn::AlgoKind::KCore};
    std::printf("%-9s %-6s %10s %12s %6s %5s %12s\n", "algo", "plat",
                "time(ms)", "reads/s", "iters", "conv", "checksum");
    auto algo_points = parallelMap<platforms::AlgoRunResult>(
        algos.size() * np, [&](std::size_t i) {
            auto b = zooBundle(defaultModel(), rc);
            platforms::AlgoRunConfig ac;
            ac.program.algo = algos[i / np];
            return runVertexProgram(
                platforms::makePlatform(zooPlatforms()[i % np]), rc,
                *b, ac);
        });
    for (const platforms::AlgoRunResult &r : algo_points) {
        std::printf("%-9s %-6s %10.2f %12.0f %6u %5s %12.6g\n",
                    r.algo.c_str(), r.platform.c_str(),
                    sim::toMillis(r.totalTime), r.throughput,
                    r.iterations, r.converged ? "yes" : "CAP",
                    r.checksum);
        csv << "algo," << r.algo << ',' << r.platform << ','
            << r.workload << ',' << r.frontierNodes
            << ",frontier_reads," << sim::toMicros(r.totalTime) << ','
            << r.throughput << ",,," << r.iterations << ','
            << (r.converged ? 1 : 0) << ',' << r.checksum << '\n';
    }
    rule();
    std::printf("Shape targets: BG-2 beats CC on every model kind and "
                "every vertex program;\ngin/gat add compute but keep "
                "the in-storage sampling advantage.\n");
    std::printf("wrote results/model_zoo.csv\n");
    return 0;
}
