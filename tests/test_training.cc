/**
 * @file
 * Tests for the training substrate: numerical gradient checking of
 * the full backward pass (through ReLU, GEMM and sum aggregation),
 * loss descent under SGD, forwardWith against forward() on every
 * model kind, and the trainer's refusal of the kinds it cannot
 * differentiate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "gnn/sampler.h"
#include "gnn/training.h"
#include "graph/generator.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::gnn;

ModelConfig
tinyModel()
{
    ModelConfig m;
    m.hops = 2;
    m.fanout = 2;
    m.featureDim = 6;
    m.hiddenDim = 4;
    m.seed = 33;
    return m;
}

Subgraph
tinySubgraph(const graph::Graph &g, const ModelConfig &m)
{
    std::vector<graph::NodeId> targets = {0, 10};
    return csrSample(g, m, 0, targets);
}

TEST(Training, InitMatchesMakeWeights)
{
    ModelConfig m = tinyModel();
    TrainState st = TrainState::init(m);
    ASSERT_EQ(st.weights.size(), 2u);
    EXPECT_EQ(st.weights[0].size(),
              std::size_t{m.hiddenDim} * m.featureDim);
    EXPECT_EQ(st.weights[1].size(),
              std::size_t{m.hiddenDim} * m.hiddenDim);
    auto w1 = makeWeights(m.seed, 1, m.hiddenDim, m.featureDim);
    EXPECT_EQ(st.weights[0], w1);
}

TEST(Training, ForwardWithInitialWeightsMatchesForward)
{
    // forwardWith runs the model's own kind, so at the initial weights
    // it is forward() bit for bit on every kind.
    graph::Graph g = graph::generateRing(50, 5);
    graph::FeatureTable feat(6, 2);
    for (ModelKind kind : {ModelKind::GCN, ModelKind::GIN, ModelKind::GAT}) {
        ModelConfig m = tinyModel();
        m.kind = kind;
        Subgraph sg = tinySubgraph(g, m);
        TrainState st = TrainState::init(m);
        auto a = forward(sg, feat, m);
        ASSERT_EQ(a.size(), 2u);
        EXPECT_EQ(a, forwardWith(sg, feat, m, st)) << modelKindName(kind);
    }
}

TEST(Training, NumericalGradientCheck)
{
    graph::Graph g = graph::generateRing(40, 4);
    graph::FeatureTable feat(6, 2);
    ModelConfig m = tinyModel();
    Subgraph sg = tinySubgraph(g, m);
    TrainState st = TrainState::init(m);

    std::vector<std::vector<float>> grads;
    StepResult r = trainStep(sg, feat, m, st, /*lr=*/0.0f, &grads);
    ASSERT_EQ(grads.size(), 2u);
    EXPECT_GT(r.gradNorm, 0.0);

    // Central differences on a sample of weights in every layer.
    const double eps = 1e-3;
    for (unsigned l = 0; l < 2; ++l) {
        for (std::size_t idx = 0; idx < grads[l].size(); idx += 5) {
            TrainState plus = st, minus = st;
            plus.weights[l][idx] += static_cast<float>(eps);
            minus.weights[l][idx] -= static_cast<float>(eps);
            double lp = evaluateLoss(sg, feat, m, plus);
            double lm = evaluateLoss(sg, feat, m, minus);
            double numeric = (lp - lm) / (2 * eps);
            double analytic = grads[l][idx];
            // Absolute-plus-relative tolerance: ReLU kinks make a few
            // entries noisy, but the bulk must match closely.
            EXPECT_NEAR(analytic, numeric,
                        2e-3 + 0.05 * std::abs(numeric))
                << "layer " << l << " idx " << idx;
        }
    }
}

TEST(Training, LossDecreasesUnderSgd)
{
    graph::GeneratorParams gp;
    gp.nodes = 400;
    gp.avgDegree = 12;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(6, 5);
    ModelConfig m = tinyModel();
    TrainState st = TrainState::init(m);

    std::vector<graph::NodeId> targets;
    for (graph::NodeId t = 0; t < 32; ++t)
        targets.push_back(t * 11 % 400);
    Subgraph sg = csrSample(g, m, 0, targets);

    double first = evaluateLoss(sg, feat, m, st);
    double prev = first;
    for (int step = 0; step < 60; ++step) {
        StepResult r = trainStep(sg, feat, m, st, 0.5f);
        EXPECT_GE(r.loss, 0.0);
        prev = r.loss;
    }
    double final = evaluateLoss(sg, feat, m, st);
    EXPECT_LT(final, 0.6 * first)
        << "loss " << first << " -> " << final;
    EXPECT_LE(final, prev * 1.05);
}

TEST(Training, StochasticEpochsConverge)
{
    // Mini-batch SGD over changing batches still drives the loss down
    // on a held-out batch.
    graph::GeneratorParams gp;
    gp.nodes = 600;
    gp.avgDegree = 10;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(6, 5);
    ModelConfig m = tinyModel();
    TrainState st = TrainState::init(m);

    std::vector<graph::NodeId> held;
    for (graph::NodeId t = 0; t < 24; ++t)
        held.push_back(t * 17 % 600);
    Subgraph held_sg = csrSample(g, m, 9999, held);
    double before = evaluateLoss(held_sg, feat, m, st);

    sim::Pcg32 rng(3);
    for (int step = 0; step < 80; ++step) {
        std::vector<graph::NodeId> batch(16);
        for (auto &t : batch)
            t = rng.below(600);
        Subgraph sg = csrSample(g, m, static_cast<std::uint64_t>(step),
                                batch);
        trainStep(sg, feat, m, st, 0.3f);
    }
    double after = evaluateLoss(held_sg, feat, m, st);
    EXPECT_LT(after, 0.8 * before);
}

TEST(Training, MacCountsReported)
{
    graph::Graph g = graph::generateRing(30, 4);
    graph::FeatureTable feat(6, 2);
    ModelConfig m = tinyModel();
    Subgraph sg = tinySubgraph(g, m);
    TrainState st = TrainState::init(m);
    StepResult r = trainStep(sg, feat, m, st, 0.1f);
    EXPECT_GT(r.macsForward, 0u);
    EXPECT_GT(r.macsBackward, 0u);
    // Backward is ~2x forward for GEMM layers.
    EXPECT_GE(r.macsBackward, r.macsForward);
}

TEST(Training, RejectsNonGcnModels)
{
    // The backward pass differentiates gcn's sum and perceptron only.
    // tinySubgraph samples targets {0, 10}, so the ring needs at
    // least 11 nodes; a 10-node ring made degree(10) read past the
    // CSR offsets array (found by ASan).
    graph::Graph g = graph::generateRing(20, 2);
    graph::FeatureTable feat(6, 2);
    for (ModelKind kind : {ModelKind::GIN, ModelKind::GAT}) {
        ModelConfig m = tinyModel();
        m.kind = kind;
        Subgraph sg = tinySubgraph(g, m);
        TrainState st = TrainState::init(m);
        EXPECT_DEATH({ trainStep(sg, feat, m, st, 0.1f); },
                     "only gcn is differentiable")
            << modelKindName(kind);
    }
}

} // namespace
