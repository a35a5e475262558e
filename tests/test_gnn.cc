/**
 * @file
 * Tests for the GNN substrate: model arithmetic, both sampling
 * disciplines (plain CSR and DirectGraph two-level), subgraph
 * structure, and the functional forward pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <type_traits>

#include "directgraph/builder.h"
#include "gnn/compute.h"
#include "gnn/sampler.h"
#include "gnn/training.h"
#include "graph/generator.h"
#include "ssd/ftl.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::gnn;

ModelConfig
model33()
{
    ModelConfig m;
    m.hops = 3;
    m.fanout = 3;
    m.featureDim = 32;
    m.hiddenDim = 16;
    m.seed = 11;
    return m;
}

TEST(Model, SubgraphArithmetic)
{
    ModelConfig m = model33();
    // 1 + 3 + 9 + 27 = 40 nodes per target (§VII-A).
    EXPECT_EQ(m.subgraphNodes(), 40u);
    EXPECT_EQ(m.nodesThroughHop(0), 1u);
    EXPECT_EQ(m.nodesThroughHop(1), 4u);
    EXPECT_EQ(m.nodesThroughHop(2), 13u);
    EXPECT_EQ(m.nodesThroughHop(3), 40u);
}

TEST(Model, DeepSubgraphCountsAre64BitAndSaturate)
{
    ModelConfig m = model33();
    m.hops = 20;
    // 3^20 and (3^21 - 1) / 2 are both past 2^32.
    EXPECT_EQ(m.nodesAtHop(20), 3486784401ull);
    EXPECT_EQ(m.nodesThroughHop(20), 5230176601ull);
    EXPECT_EQ(m.subgraphNodes(), 5230176601ull);
    m.hops = 255;
    m.fanout = 255;
    EXPECT_EQ(m.nodesAtHop(255), ~std::uint64_t{0});
    EXPECT_EQ(m.subgraphNodes(), ~std::uint64_t{0});
}

TEST(Model, EstimateComputeShapes)
{
    ModelConfig m = model33();
    ComputeWorkload w = estimateCompute(m, 10);
    ASSERT_EQ(w.gemms.size(), 3u);
    EXPECT_EQ(w.gemms[0].m, 130u); // batch x nodesThroughHop(2).
    EXPECT_EQ(w.gemms[0].k, 32u);
    EXPECT_EQ(w.gemms[0].n, 16u);
    EXPECT_EQ(w.gemms[1].m, 40u);
    EXPECT_EQ(w.gemms[1].k, 16u);
    EXPECT_EQ(w.gemms[2].m, 10u);
    EXPECT_GT(w.totalMacs(), 0u);
    EXPECT_GT(w.aggregateElements, 0u);
}

TEST(CsrSampler, ShapeAndMembership)
{
    graph::GeneratorParams gp;
    gp.nodes = 2000;
    gp.avgDegree = 20;
    graph::Graph g = graph::generatePowerLaw(gp);
    ModelConfig m = model33();

    std::vector<graph::NodeId> targets = {5, 99, 1500};
    Subgraph sg = csrSample(g, m, 0, targets);
    // Full fanout everywhere (all degrees >= 1).
    EXPECT_EQ(sg.size(), 3u * m.subgraphNodes());
    auto counts = sg.hopCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 3u);
    EXPECT_EQ(counts[3], 3u * 27u);
    // Every child is a real neighbour of its parent.
    for (Slot s = 0; s < sg.size(); ++s) {
        const auto &e = sg[s];
        if (e.parent == kNoParent)
            continue;
        graph::NodeId parent = sg[e.parent].node;
        bool found = false;
        for (graph::NodeId n : g.neighbors(parent))
            if (n == e.node) {
                found = true;
                break;
            }
        EXPECT_TRUE(found) << "slot " << s;
        EXPECT_EQ(e.hop, sg[e.parent].hop + 1);
    }
}

TEST(CsrSampler, DeterministicAcrossCallsAndBatchSensitive)
{
    graph::Graph g = graph::generateRing(100, 10);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {0, 50};
    Subgraph a = csrSample(g, m, 7, targets);
    Subgraph b = csrSample(g, m, 7, targets);
    ASSERT_EQ(a.size(), b.size());
    for (Slot s = 0; s < a.size(); ++s)
        EXPECT_EQ(a[s].node, b[s].node);
    Subgraph c = csrSample(g, m, 8, targets);
    bool differs = false;
    for (Slot s = 0; s < a.size() && !differs; ++s)
        differs = a[s].node != c[s].node;
    EXPECT_TRUE(differs);
}

TEST(CsrSampler, ZeroDegreeNodesTruncate)
{
    std::vector<std::vector<graph::NodeId>> adj = {{1}, {}};
    graph::Graph g(adj);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {0};
    Subgraph sg = csrSample(g, m, 0, targets);
    // Target -> 3x node 1 (degree 0) -> nothing below.
    EXPECT_EQ(sg.size(), 4u);
}

TEST(DrawPrimary, PartitionsAcrossRegions)
{
    std::vector<dg::SecondaryRef> secs = {{dg::DgAddress(1, 0), 100},
                                          {dg::DgAddress(2, 0), 100}};
    // degree 250 = 50 in page + 100 + 100.
    const PrimaryDraws d =
        drawPrimary(1, 0, 0, 42, 200, 250, 50, dg::SecondaryList(secs));
    EXPECT_EQ(d.inPage.size() + d.secondary.size(), 200u);
    for (auto p : d.inPage)
        EXPECT_LT(p, 50u);
    EXPECT_TRUE(std::is_sorted(d.secondary.begin(), d.secondary.end()));
    // One call per secondary hit, in ordinal order, with its count.
    std::vector<std::uint32_t> hits(secs.size(), 0);
    std::uint32_t last = 0;
    std::uint32_t calls = 0;
    d.forEachSecondaryHit([&](std::uint32_t j, std::uint8_t n) {
        ASSERT_LT(j, secs.size());
        EXPECT_TRUE(calls == 0 || j > last);
        last = j;
        ++calls;
        hits[j] = n;
    });
    EXPECT_EQ(hits[0] + hits[1], d.secondary.size());
    // With 200 draws over 250 slots, both secondaries are hit w.h.p.
    EXPECT_GT(hits[0], 0u);
    EXPECT_GT(hits[1], 0u);
}

TEST(DrawPrimary, FullFanoutFitsTheFixedBuffers)
{
    // 255 draws (the 8-bit fanout's maximum) all past the in-page
    // portion: every one lands in the fixed secondary buffer.
    std::vector<dg::SecondaryRef> secs = {{dg::DgAddress(1, 0), 1000}};
    const PrimaryDraws d =
        drawPrimary(3, 1, 0, 7, 255, 1000, 0, dg::SecondaryList(secs));
    EXPECT_TRUE(d.inPage.empty());
    EXPECT_EQ(d.secondary.size(), kMaxDraws);
    std::uint32_t calls = 0;
    d.forEachSecondaryHit([&](std::uint32_t j, std::uint8_t n) {
        EXPECT_EQ(j, 0u);
        EXPECT_EQ(n, 255u);
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(drawSecondary(3, 1, 0, 7, 0, 0, 255, 1000).size(),
              kMaxDraws);
}

TEST(DrawSecondary, BoundsAndDeterminism)
{
    auto picks = [](std::uint32_t secondary, std::uint32_t first,
                    std::uint8_t count) {
        const Draws d = drawSecondary(1, 0, 2, 42, secondary, first, count,
                                      64);
        return std::vector<std::uint32_t>(d.begin(), d.end());
    };
    auto a = picks(1, 0, 5);
    EXPECT_EQ(a, picks(1, 0, 5));
    ASSERT_EQ(a.size(), 5u);
    for (auto p : a)
        EXPECT_LT(p, 64u);
    EXPECT_NE(a, picks(2, 0, 5));
    // Splitting the draws (coalescing ablation) keeps the picks.
    auto first = picks(1, 0, 2);
    auto rest = picks(1, 2, 3);
    first.insert(first.end(), rest.begin(), rest.end());
    EXPECT_EQ(first, a);
}

TEST(LayoutSampler, MatchesCsrWhenNoSpill)
{
    // Low-degree graph: everything fits in primary sections, so the
    // two disciplines are identical by construction.
    flash::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 2;
    cfg.blocksPerPlane = 64;
    cfg.pagesPerBlock = 32;
    graph::Graph g = graph::generateRing(300, 12);
    graph::FeatureTable feat(16, 2);
    ssd::Ftl ftl(cfg);
    auto blocks = ftl.reserveBlocks(32);
    auto layout = dg::buildLayout(g, feat, cfg, blocks);
    for (const auto &nl : layout.nodes)
        ASSERT_TRUE(nl.secondaries.empty());

    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {3, 77, 200};
    Subgraph a = csrSample(g, m, 5, targets);
    Subgraph b = layoutSample(g, layout, m, 5, targets);
    ASSERT_EQ(a.size(), b.size());
    for (Slot s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].node, b[s].node);
        EXPECT_EQ(a[s].hop, b[s].hop);
        EXPECT_EQ(a[s].parent, b[s].parent);
    }
}

TEST(LayoutSampler, SpilledNodesStillSampleOwnNeighbors)
{
    flash::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 2;
    cfg.blocksPerPlane = 128;
    cfg.pagesPerBlock = 32;
    // Hub node 0 with a huge neighbour list.
    std::vector<std::vector<graph::NodeId>> adj(64);
    for (graph::NodeId i = 0; i < 5000; ++i)
        adj[0].push_back(1 + (i % 63));
    for (graph::NodeId v = 1; v < 64; ++v)
        adj[v] = {0, static_cast<graph::NodeId>(v % 63 + 1)};
    graph::Graph g(adj);
    graph::FeatureTable feat(16, 2);
    ssd::Ftl ftl(cfg);
    auto layout = dg::buildLayout(g, feat, cfg, ftl.reserveBlocks(64));
    ASSERT_GT(layout.nodes[0].secondaries.size(), 0u);

    ModelConfig m = model33();
    m.fanout = 8; // More draws to hit the secondaries.
    std::vector<graph::NodeId> targets = {0};
    Subgraph sg = layoutSample(g, layout, m, 1, targets);
    for (Slot s = 0; s < sg.size(); ++s) {
        const auto &e = sg[s];
        if (e.parent == kNoParent)
            continue;
        graph::NodeId parent = sg[e.parent].node;
        bool found = false;
        for (graph::NodeId n : g.neighbors(parent))
            if (n == e.node)
                found = true;
        EXPECT_TRUE(found);
    }
    // Hop-1 children of node 0 exist with full fanout.
    auto counts = sg.hopCounts();
    EXPECT_EQ(counts[1], 8u);
}

TEST(Subgraph, ChildrenIndexAndHopCounts)
{
    Subgraph sg;
    Slot r = sg.add(10, 0, kNoParent);
    Slot a = sg.add(11, 1, r);
    Slot b = sg.add(12, 1, r);
    sg.add(13, 2, a);
    auto idx = sg.childrenIndex();
    ASSERT_EQ(idx[r].size(), 2u);
    EXPECT_EQ(idx[r][0], a);
    EXPECT_EQ(idx[r][1], b);
    EXPECT_EQ(idx[a].size(), 1u);
    auto counts = sg.hopCounts();
    EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 2, 1}));
}

TEST(Compute, ForwardDeterministicAndShaped)
{
    graph::Graph g = graph::generateRing(100, 8);
    graph::FeatureTable feat(32, 3);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {1, 2, 3};
    Subgraph sg = csrSample(g, m, 0, targets);

    auto out1 = forward(sg, feat, m);
    auto out2 = forward(sg, feat, m);
    ASSERT_EQ(out1.size(), 3u);
    ASSERT_EQ(out1[0].size(), m.hiddenDim);
    for (std::size_t t = 0; t < out1.size(); ++t)
        for (std::size_t i = 0; i < out1[t].size(); ++i)
            EXPECT_EQ(out1[t][i], out2[t][i]);
    // ReLU output is nonnegative, and not all zero.
    float sum = 0;
    for (const auto &v : out1)
        for (float x : v) {
            EXPECT_GE(x, 0.0f);
            sum += x;
        }
    EXPECT_GT(sum, 0.0f);
}

TEST(Compute, EmbeddingDependsOnSubgraph)
{
    graph::Graph g = graph::generateRing(100, 8);
    graph::FeatureTable feat(32, 3);
    ModelConfig m = model33();
    std::vector<graph::NodeId> t1 = {1};
    std::vector<graph::NodeId> t2 = {2};
    auto o1 = forward(csrSample(g, m, 0, t1), feat, m);
    auto o2 = forward(csrSample(g, m, 0, t2), feat, m);
    bool differs = false;
    for (std::size_t i = 0; i < o1[0].size(); ++i)
        differs |= o1[0][i] != o2[0][i];
    EXPECT_TRUE(differs);
}

TEST(Compute, MeasureMatchesEstimateOnFullSubgraphs)
{
    graph::Graph g = graph::generateRing(500, 10);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets(8);
    for (std::size_t i = 0; i < targets.size(); ++i)
        targets[i] = static_cast<graph::NodeId>(i * 20);
    Subgraph sg = csrSample(g, m, 0, targets);
    ComputeWorkload measured = measureCompute(sg, m);
    ComputeWorkload estimated = estimateCompute(m, 8);
    ASSERT_EQ(measured.gemms.size(), estimated.gemms.size());
    for (std::size_t l = 0; l < measured.gemms.size(); ++l) {
        EXPECT_EQ(measured.gemms[l].m, estimated.gemms[l].m);
        EXPECT_EQ(measured.gemms[l].k, estimated.gemms[l].k);
    }
    EXPECT_EQ(measured.aggregateElements, estimated.aggregateElements);
}

// ==================================================================
// Functional goldens: the FNV-1a-64 digest of the float bits of both
// forward passes (FP32 and FP16, every model kind, hops 1-3), of the
// trainer's forwardWith, of five SGD steps and of the loss after
// them. A change to the message-passing arithmetic that moves a
// single bit of any embedding, loss or gradient fails here.
// ==================================================================

/** FNV-1a-64 over the object bytes of values, the hash MetricsDigest
 *  takes over the metrics text. */
class BitDigest
{
  public:
    template <class T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof bytes);
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }

    void
    add(const std::vector<std::vector<float>> &rows)
    {
        add(rows.size());
        for (const auto &row : rows) {
            add(row.size());
            for (float x : row)
                add(x);
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ull;
};

std::uint64_t
digestOf(const std::vector<std::vector<float>> &rows)
{
    BitDigest d;
    d.add(rows);
    return d.value();
}

/** One fixed power-law graph and target list for every golden. */
struct DigestRig
{
    graph::Graph g = [] {
        graph::GeneratorParams gp;
        gp.nodes = 2000;
        gp.avgDegree = 20;
        return graph::generatePowerLaw(gp);
    }();
    graph::FeatureTable feat{32, 3};
    std::vector<graph::NodeId> targets = {5, 99, 1500, 7};
};

TEST(FunctionalDigest, ForwardBitsArePinned)
{
    struct Pin
    {
        ModelKind kind;
        std::uint8_t hops;
        std::uint64_t fp32;
        std::uint64_t fp16;
    };
    const Pin pins[] = {
        {ModelKind::GCN, 1, 0x8ea0ea906d2c31a0ull, 0xa6c012ba51093985ull},
        {ModelKind::GCN, 2, 0xf271d22db92be19full, 0xc6d6b4a465eaa060ull},
        {ModelKind::GCN, 3, 0xceaaa1bf33f24541ull, 0x9281986954d08872ull},
        {ModelKind::GIN, 1, 0xe591fc04e72e0822ull, 0x945e32ee8ad33c0aull},
        {ModelKind::GIN, 2, 0xe562aa53dc57fb57ull, 0x7f3b19e01d3a2942ull},
        {ModelKind::GIN, 3, 0xf72309180161159full, 0x6f5e6c90506e3f4dull},
        {ModelKind::GAT, 1, 0xd2b9e885a554c440ull, 0x095ed29c89569e98ull},
        {ModelKind::GAT, 2, 0xe901c1f453184747ull, 0x463c851f6522213cull},
        {ModelKind::GAT, 3, 0xb9cb9ed33f329706ull, 0x28011b37a56083d2ull},
    };
    DigestRig rig;
    for (const Pin &p : pins) {
        ModelConfig m = model33();
        m.kind = p.kind;
        m.hops = p.hops;
        m.heads = p.kind == ModelKind::GAT ? 2 : 1;
        Subgraph sg = csrSample(rig.g, m, 0, rig.targets);
        EXPECT_EQ(digestOf(forward(sg, rig.feat, m)), p.fp32)
            << modelKindName(p.kind) << " hops " << unsigned{p.hops}
            << " fp32";
        EXPECT_EQ(digestOf(forwardFp16(sg, rig.feat, m)), p.fp16)
            << modelKindName(p.kind) << " hops " << unsigned{p.hops}
            << " fp16";
    }
}

TEST(FunctionalDigest, TrainingBitsArePinned)
{
    DigestRig rig;
    const ModelConfig m = model33();
    Subgraph sg = csrSample(rig.g, m, 0, rig.targets);
    TrainState st = TrainState::init(m);
    EXPECT_EQ(digestOf(forwardWith(sg, rig.feat, m, st)),
              0xceaaa1bf33f24541ull);

    BitDigest steps;
    for (int i = 0; i < 5; ++i) {
        std::vector<std::vector<float>> grads;
        StepResult r = trainStep(sg, rig.feat, m, st, 0.3f, &grads);
        steps.add(r.loss);
        steps.add(r.gradNorm);
        steps.add(r.macsForward);
        steps.add(r.macsBackward);
        steps.add(grads);
    }
    EXPECT_EQ(steps.value(), 0x19a5e6f8bca280bdull);

    BitDigest loss;
    loss.add(evaluateLoss(sg, rig.feat, m, st));
    EXPECT_EQ(loss.value(), 0x706a05588448d930ull);
}

} // namespace
