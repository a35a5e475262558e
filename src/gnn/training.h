/**
 * @file
 * GNN training substrate: backpropagation through gcn's message-passing
 * forward pass (sum-aggregation + perceptron layers) and SGD weight
 * updates. The paper's evaluation runs GNN *training* (§VII-A); this
 * module makes the reproduction's mini-batches real training steps
 * rather than inference-only passes. The activations come from the
 * one message-passing kernel (forwardLayers() in compute.h), so
 * forwardWith() and evaluateLoss() run every model kind; trainStep()
 * differentiates gcn only and stops with sim::fatal on gin or gat.
 *
 * The objective is a regression against deterministic pseudo-labels
 * (a stand-in for the task head — gradients through the GNN body are
 * identical in structure for any differentiable head). Gradients are
 * validated against numerical differentiation in the test suite.
 */

#ifndef BEACONGNN_GNN_TRAINING_H
#define BEACONGNN_GNN_TRAINING_H

#include <vector>

#include "gnn/compute.h"
#include "gnn/model.h"
#include "gnn/subgraph.h"
#include "graph/graph.h"

namespace beacongnn::gnn {

/** Trainable parameters: one weight matrix per layer. */
struct TrainState
{
    /** weights[l-1] is layer l's matrix, row-major n_out x n_in. */
    std::vector<std::vector<float>> weights;

    /** Initialize from the deterministic updateWeights(). */
    static TrainState init(const ModelConfig &m);

    /** Layer l's input dimension. */
    static std::uint32_t
    layerInputDim(const ModelConfig &m, unsigned l)
    {
        return l == 1 ? m.featureDim : m.hiddenDim;
    }
};

/** Deterministic pseudo-label for node @p v (regression target). */
float pseudoLabel(graph::NodeId v, std::uint16_t i, std::uint16_t dim,
                  std::uint64_t seed);

/** Result of one training step. */
struct StepResult
{
    double loss = 0;        ///< Mean squared error over targets.
    double gradNorm = 0;    ///< L2 norm of all weight gradients.
    std::uint64_t macsForward = 0;
    std::uint64_t macsBackward = 0;
};

/**
 * One SGD step of a gcn model on a sampled mini-batch subgraph:
 * forward through forwardLayers(), MSE loss on the hop-0 embeddings
 * against pseudo-labels, full backpropagation through aggregation and
 * ReLU, and an in-place weight update.
 *
 * @param sg       Mini-batch subgraph.
 * @param features h^0 features.
 * @param m        Model config.
 * @param state    Parameters (updated in place).
 * @param lr       Learning rate (0 = compute gradients only).
 * @param grad_out If nonnull, receives the raw gradients (same
 *                 shapes as state.weights) — used by the tests.
 */
StepResult trainStep(const Subgraph &sg,
                     const graph::FeatureTable &features,
                     const ModelConfig &m, TrainState &state, float lr,
                     std::vector<std::vector<float>> *grad_out = nullptr);

/**
 * Forward pass using explicit update weights (rather than the
 * deterministic makeWeights) — evaluation companion to trainStep;
 * forward() bit for bit at TrainState::init().
 */
std::vector<std::vector<float>> forwardWith(
    const Subgraph &sg, const graph::FeatureTable &features,
    const ModelConfig &m, const TrainState &state);

/** Mean squared error of @p state on a subgraph (no update). */
double evaluateLoss(const Subgraph &sg,
                    const graph::FeatureTable &features,
                    const ModelConfig &m, const TrainState &state);

} // namespace beacongnn::gnn

#endif // BEACONGNN_GNN_TRAINING_H
