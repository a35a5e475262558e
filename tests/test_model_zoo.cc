/**
 * @file
 * Model zoo and vertex programs (DESIGN.md §15): fanout-schedule
 * arithmetic hand-checked, per-kind compute workloads (gcn must equal
 * the historical single-GEMM estimate, gin adds the MLP matrix, gat
 * adds per-edge attention work), the `--fanouts 3,3,3` ==
 * `fanout=3` byte-identity the CLI relies on, PageRank / BFS / k-core
 * hand-checked on tiny adjacency lists, the convergence driver on CC
 * and BG-2, and multi-model serving tallies.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "gnn/model.h"
#include "gnn/vertex_program.h"
#include "platforms/algo_runner.h"
#include "platforms/platform.h"
#include "platforms/runner.h"
#include "serve/serve.h"
#include "sim/metrics.h"

using namespace beacongnn;

namespace {

// ==================================================================
// ModelSpec fanout schedules.
// ==================================================================

TEST(FanoutSchedule, NodesThroughHopHandChecked)
{
    gnn::ModelSpec m;
    m.hops = 3;
    m.fanouts = {2, 3};
    // fanoutAt pads with the last entry: 2, 3, 3.
    EXPECT_EQ(m.fanoutAt(0), 2);
    EXPECT_EQ(m.fanoutAt(1), 3);
    EXPECT_EQ(m.fanoutAt(2), 3);
    EXPECT_FALSE(m.uniformFanout());
    // Levels: 1, 2, 6, 18 -> cumulative 1, 3, 9, 27.
    EXPECT_EQ(m.nodesAtHop(0), 1u);
    EXPECT_EQ(m.nodesAtHop(1), 2u);
    EXPECT_EQ(m.nodesAtHop(2), 6u);
    EXPECT_EQ(m.nodesAtHop(3), 18u);
    EXPECT_EQ(m.nodesThroughHop(0), 1u);
    EXPECT_EQ(m.nodesThroughHop(1), 3u);
    EXPECT_EQ(m.nodesThroughHop(2), 9u);
    EXPECT_EQ(m.subgraphNodes(), 27u);
}

TEST(FanoutSchedule, UniformSpecMatchesHistoricalShape)
{
    gnn::ModelSpec m; // hops 3, fanout 3.
    EXPECT_TRUE(m.uniformFanout());
    EXPECT_EQ(m.subgraphNodes(), 40u); // 1 + 3 + 9 + 27.
}

TEST(FanoutSchedule, NormalizeCollapsesAllEqualToUniform)
{
    gnn::ModelSpec uniform;
    gnn::ModelSpec listed;
    listed.fanouts = {3, 3, 3};
    EXPECT_FALSE(listed == uniform);
    listed.normalizeFanouts();
    EXPECT_TRUE(listed.uniformFanout());
    EXPECT_EQ(listed.fanout, 3);
    EXPECT_TRUE(listed == uniform);
    // A genuinely tapered schedule survives normalization.
    gnn::ModelSpec tapered;
    tapered.fanouts = {5, 3, 2};
    tapered.normalizeFanouts();
    EXPECT_FALSE(tapered.uniformFanout());
}

TEST(FanoutSchedule, ParseFanouts)
{
    auto ok = gnn::parseFanouts("3,2,2");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, (std::vector<std::uint8_t>{3, 2, 2}));
    EXPECT_FALSE(gnn::parseFanouts("").has_value());
    EXPECT_FALSE(gnn::parseFanouts("3,0,2").has_value());
    EXPECT_FALSE(gnn::parseFanouts("3,x").has_value());
    EXPECT_FALSE(gnn::parseFanouts("256").has_value());
    EXPECT_FALSE(gnn::parseFanouts("3,,2").has_value());
}

// ==================================================================
// Per-kind compute workloads.
// ==================================================================

TEST(ModelWork, GcnMatchesHistoricalEstimate)
{
    gnn::ModelSpec m;
    m.hops = 2;
    m.fanout = 2;
    m.featureDim = 64;
    m.hiddenDim = 32;
    const std::uint32_t batch = 4;
    gnn::ComputeWorkload w = m.workFor(batch);
    // Historical shape: one GEMM per layer, layer l updates the
    // nodes surviving through hop K-l.
    ASSERT_EQ(w.gemms.size(), 2u);
    EXPECT_EQ(w.gemms[0].m, 4u * 3u); // batch * (1 + 2)
    EXPECT_EQ(w.gemms[0].k, 64u);
    EXPECT_EQ(w.gemms[0].n, 32u);
    EXPECT_EQ(w.gemms[1].m, 4u * 1u);
    EXPECT_EQ(w.gemms[1].k, 32u);
    EXPECT_EQ(w.gemms[1].n, 32u);
    // Aggregation sums fanout+1 vectors per updated node.
    EXPECT_EQ(w.aggregateElements,
              12u * 3u * 64u + 4u * 3u * 32u);
    EXPECT_EQ(w.edgeOps, 0u); // gcn leaves the historical timing alone.
    EXPECT_EQ(gnn::estimateCompute(m, batch).totalMacs(),
              w.totalMacs());
}

TEST(ModelWork, GinAddsMlpMatrixAndEpsilonOps)
{
    gnn::ModelSpec gcn, gin;
    gin.kind = gnn::ModelKind::GIN;
    const std::uint32_t batch = 8;
    gnn::ComputeWorkload wg = gcn.workFor(batch);
    gnn::ComputeWorkload wi = gin.workFor(batch);
    // Two GEMMs per layer instead of one; same aggregation volume.
    EXPECT_EQ(wi.gemms.size(), 2u * wg.gemms.size());
    EXPECT_EQ(wi.aggregateElements, wg.aggregateElements);
    EXPECT_GT(wi.totalMacs(), wg.totalMacs());
    EXPECT_GT(wi.edgeOps, 0u); // (1 + eps) self-scaling.
}

TEST(ModelWork, GatAddsPerEdgeAttentionWork)
{
    gnn::ModelSpec gcn, gat;
    gat.kind = gnn::ModelKind::GAT;
    const std::uint32_t batch = 8;
    gnn::ComputeWorkload wg = gcn.workFor(batch);
    gnn::ComputeWorkload wa = gat.workFor(batch);
    EXPECT_EQ(wa.totalMacs(), wg.totalMacs());
    EXPECT_GT(wa.edgeOps, 0u);
    EXPECT_EQ(gat.edgeCoeffBytes(), 2u);
    gat.heads = 4;
    EXPECT_EQ(gat.edgeCoeffBytes(), 8u);
    EXPECT_EQ(gcn.edgeCoeffBytes(), 0u);
}

TEST(ModelWork, KindNamesRoundTrip)
{
    using gnn::ModelKind;
    EXPECT_STREQ(gnn::modelKindName(ModelKind::GCN), "gcn");
    EXPECT_EQ(gnn::findModelKind("GIN"), ModelKind::GIN);
    EXPECT_EQ(gnn::findModelKind("gat"), ModelKind::GAT);
    EXPECT_FALSE(gnn::findModelKind("sage").has_value());
    EXPECT_EQ(gnn::modelKindList(), "gcn, gin, gat");
    EXPECT_EQ(gnn::findAlgoKind("PageRank"), gnn::AlgoKind::PageRank);
    EXPECT_FALSE(gnn::findAlgoKind("sssp").has_value());
    EXPECT_EQ(gnn::algoKindList(), "pagerank, bfs, kcore");
}

// ==================================================================
// CLI-path byte-identity: `--fanouts 3,3,3` == `fanout=3`.
// ==================================================================

std::string
metricsJsonFor(const gnn::ModelSpec &model)
{
    graph::WorkloadSpec spec = graph::workload("amazon");
    spec.simNodes = 2000;
    platforms::RunConfig rc;
    rc.batchSize = 16;
    rc.batches = 2;
    auto bundle =
        platforms::makeBundle(spec, rc.system.flash, model);
    sim::MetricRegistry reg;
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle, &reg);
    EXPECT_TRUE(r.ok);
    std::ostringstream os;
    reg.writeJson(os);
    return os.str();
}

TEST(ModelIdentity, ExplicitUniformFanoutsAreByteIdentical)
{
    gnn::ModelSpec uniform;
    uniform.hops = 2;
    uniform.fanout = 3;

    // What the CLI does with --fanouts 3,3,3: parse then normalize.
    gnn::ModelSpec listed;
    listed.hops = 2;
    auto parsed = gnn::parseFanouts("3,3,3");
    ASSERT_TRUE(parsed.has_value());
    listed.fanouts = *parsed;
    listed.normalizeFanouts();

    std::string a = metricsJsonFor(uniform);
    std::string b = metricsJsonFor(listed);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    // The default model publishes no model.* instruments at all.
    EXPECT_EQ(a.find("model."), std::string::npos);
}

TEST(ModelIdentity, NonDefaultModelsPublishModelNamespace)
{
    gnn::ModelSpec gat;
    gat.hops = 2;
    gat.kind = gnn::ModelKind::GAT;
    std::string j = metricsJsonFor(gat);
    EXPECT_NE(j.find("model.kind_id"), std::string::npos);
    EXPECT_NE(j.find("model.edge_coeff_bytes"), std::string::npos);

    gnn::ModelSpec tapered;
    tapered.hops = 2;
    tapered.fanouts = {3, 2};
    std::string t = metricsJsonFor(tapered);
    EXPECT_NE(t.find("model.fanout_total"), std::string::npos);
}

// ==================================================================
// Vertex programs hand-checked on tiny graphs.
// ==================================================================

TEST(VertexProgram, BfsDistancesOnAPath)
{
    // 0 - 1 - 2 - 3 (undirected), plus isolated 4.
    graph::Graph g({{1}, {0, 2}, {1, 3}, {2}, {}});
    gnn::VertexProgramConfig cfg;
    cfg.algo = gnn::AlgoKind::Bfs;
    cfg.source = 0;
    auto p = gnn::makeVertexProgram(cfg);
    p->init(g);
    EXPECT_EQ(p->frontier(),
              (std::vector<graph::NodeId>{0}));
    while (!p->frontier().empty() && !p->step(g)) {
    }
    const std::vector<double> &d = p->values();
    ASSERT_EQ(d.size(), 5u);
    EXPECT_EQ(d[0], 0.0);
    EXPECT_EQ(d[1], 1.0);
    EXPECT_EQ(d[2], 2.0);
    EXPECT_EQ(d[3], 3.0);
    EXPECT_EQ(d[4], -1.0); // Unreachable.
}

TEST(VertexProgram, PageRankSumsToOneAndRanksTheHub)
{
    // Star: every leaf points at the hub 0; hub points back at all.
    graph::Graph g({{1, 2, 3}, {0}, {0}, {0}});
    gnn::VertexProgramConfig cfg;
    cfg.algo = gnn::AlgoKind::PageRank;
    cfg.maxIters = 100;
    auto p = gnn::makeVertexProgram(cfg);
    p->init(g);
    std::uint32_t iters = 0;
    bool done = false;
    while (!done && iters < cfg.maxIters) {
        done = p->step(g);
        ++iters;
    }
    EXPECT_TRUE(done);
    const std::vector<double> &r = p->values();
    double sum = 0;
    for (double v : r)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_GT(r[0], r[1]); // The hub outranks every leaf.
    EXPECT_NEAR(r[1], r[2], 1e-9);
    EXPECT_NEAR(r[1], r[3], 1e-9);
}

TEST(VertexProgram, KCorePeelsTheTail)
{
    // Triangle 0-1-2 (degree 2 each) with a pendant 3 attached to 0.
    graph::Graph g({{1, 2, 3}, {0, 2}, {0, 1}, {0}});
    gnn::VertexProgramConfig cfg;
    cfg.algo = gnn::AlgoKind::KCore;
    cfg.k = 2;
    auto p = gnn::makeVertexProgram(cfg);
    p->init(g);
    while (!p->frontier().empty() && !p->step(g)) {
    }
    const std::vector<double> &core = p->values();
    ASSERT_EQ(core.size(), 4u);
    EXPECT_EQ(core[0], 1.0);
    EXPECT_EQ(core[1], 1.0);
    EXPECT_EQ(core[2], 1.0);
    EXPECT_EQ(core[3], 0.0); // Degree-1 pendant peeled.
}

// ==================================================================
// Convergence driver over the platform session.
// ==================================================================

class AlgoRunner : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        gnn::ModelConfig model;
        model.hops = 2;
        model.fanout = 2;
        graph::WorkloadSpec spec = graph::workload("amazon");
        spec.simNodes = 2000;
        platforms::RunConfig rc;
        rc.batchSize = 32;
        rc.batches = 1;
        bundle = platforms::makeBundle(spec, rc.system.flash, model)
                     .release();
        run = rc;
    }

    static void
    TearDownTestSuite()
    {
        delete bundle;
        bundle = nullptr;
    }

    static platforms::WorkloadBundle *bundle;
    static platforms::RunConfig run;
};

platforms::WorkloadBundle *AlgoRunner::bundle = nullptr;
platforms::RunConfig AlgoRunner::run;

TEST_F(AlgoRunner, PageRankConvergesOnBothPlatformFamilies)
{
    platforms::AlgoRunConfig ac;
    ac.program.algo = gnn::AlgoKind::PageRank;
    for (auto kind : {platforms::PlatformKind::CC,
                      platforms::PlatformKind::BG2}) {
        sim::MetricRegistry reg;
        platforms::AlgoRunResult r = platforms::runVertexProgram(
            platforms::makePlatform(kind), run, *bundle, ac, &reg);
        EXPECT_TRUE(r.ok);
        EXPECT_TRUE(r.converged);
        EXPECT_GT(r.iterations, 0u);
        EXPECT_GE(r.frontierNodes, bundle->graph.numNodes());
        EXPECT_GT(r.totalTime, 0u);
        EXPECT_NEAR(r.checksum, 1.0, 1e-6); // Ranks sum to 1.
        std::ostringstream os;
        reg.writeJson(os);
        EXPECT_NE(os.str().find("model.algo.iterations"),
                  std::string::npos);
    }
}

TEST_F(AlgoRunner, BfsFrontierShrinksToTheReachableSet)
{
    platforms::AlgoRunConfig ac;
    ac.program.algo = gnn::AlgoKind::Bfs;
    platforms::AlgoRunResult r = platforms::runVertexProgram(
        platforms::makePlatform(platforms::PlatformKind::BG2), run,
        *bundle, ac);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.algo, std::string("bfs"));
    // BFS reads each reached vertex exactly once.
    EXPECT_LE(r.frontierNodes, bundle->graph.numNodes());
    EXPECT_GT(r.frontierNodes, 0u);
}

TEST_F(AlgoRunner, DeterministicAcrossRuns)
{
    platforms::AlgoRunConfig ac;
    ac.program.algo = gnn::AlgoKind::KCore;
    auto once = [&] {
        sim::MetricRegistry reg;
        platforms::runVertexProgram(
            platforms::makePlatform(platforms::PlatformKind::BG2),
            run, *bundle, ac, &reg);
        std::ostringstream os;
        reg.writeJson(os);
        return os.str();
    };
    std::string a = once();
    std::string b = once();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// ==================================================================
// Multi-model serving.
// ==================================================================

TEST(ServeModels, PerModelTalliesCoverEveryRequest)
{
    gnn::ModelConfig model;
    model.hops = 2;
    model.fanout = 2;
    graph::WorkloadSpec spec = graph::workload("amazon");
    spec.simNodes = 2000;
    platforms::RunConfig rc;
    auto bundle =
        platforms::makeBundle(spec, rc.system.flash, model);

    serve::ServeConfig sc;
    sc.arrivals.requests = 48;
    sc.arrivals.ratePerSec = 2000;
    sc.models = {gnn::ModelKind::GCN, gnn::ModelKind::GIN,
                 gnn::ModelKind::GAT};

    sim::MetricRegistry reg;
    serve::ServeResult r = serve::serveWorkload(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle, sc, nullptr, &reg);
    EXPECT_TRUE(r.ok);
    ASSERT_EQ(r.perModelRequests.size(), 3u);
    std::uint64_t sum = 0;
    for (std::uint64_t n : r.perModelRequests)
        sum += n;
    EXPECT_EQ(sum, r.requests);
    // Tenants spread round-robin over models, so each serves some.
    for (std::uint64_t n : r.perModelRequests)
        EXPECT_GT(n, 0u);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_NE(os.str().find("model.gin.requests"), std::string::npos);
}

} // namespace
