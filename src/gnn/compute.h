/**
 * @file
 * Functional GNN forward pass over a sampled subgraph (Eq. 1): K
 * layers of message passing, each an AGGREGATE over N(u) u {u} and a
 * perceptron (GEMV per node) COMBINE, shaped by the model kind (gcn:
 * vector_sum; gin: (1 + eps)-weighted sum and a two-layer MLP; gat:
 * softmax-attention sum). One kernel computes it for every caller:
 * forward() in FP32, forwardFp16() through the paper's FP16 datapath
 * and the trainer through forwardLayers(). Weights are deterministic
 * pseudo-random matrices derived from the model seed, so any two
 * platforms computing the same subgraph produce bit-identical
 * results — used to validate the end-to-end functional path.
 */

#ifndef BEACONGNN_GNN_COMPUTE_H
#define BEACONGNN_GNN_COMPUTE_H

#include <vector>

#include "gnn/model.h"
#include "gnn/subgraph.h"
#include "graph/graph.h"

namespace beacongnn::gnn {

/** Deterministic weight matrix (row-major n_out x n_in). */
std::vector<float> makeWeights(std::uint64_t seed, unsigned layer,
                               std::uint32_t n_out, std::uint32_t n_in);

/** Every layer's makeWeights() update matrix: the weights forward()
 *  and forwardFp16() run with and TrainState::init() starts from. */
std::vector<std::vector<float>> updateWeights(const ModelConfig &m);

/**
 * Run the K-layer forward pass.
 *
 * @param sg       Mini-batch subgraph (forest; hop-0 entries are
 *                 targets).
 * @param features Feature table (h^0).
 * @param m        Model config.
 * @return One hiddenDim-sized embedding per hop-0 entry, in subgraph
 *         order.
 */
std::vector<std::vector<float>> forward(const Subgraph &sg,
                                        const graph::FeatureTable &features,
                                        const ModelConfig &m);

/**
 * FP16-accurate forward pass: features, weights, aggregates and layer
 * outputs are rounded through IEEE binary16 after every operation,
 * matching the paper's FP16 datapath; attention logits and GEMV
 * accumulation stay FP32. Results track forward() within half-
 * precision rounding error (validated by the test suite).
 */
std::vector<std::vector<float>> forwardFp16(
    const Subgraph &sg, const graph::FeatureTable &features,
    const ModelConfig &m);

/** Every layer's activations of one forward pass: act[l][slot] is the
 *  slot's embedding after layer l (act[0] holds the features); layer
 *  l computes only the slots at hop <= hops - l, the rest stay empty. */
using Activations = std::vector<std::vector<std::vector<float>>>;

/**
 * The FP32 forward pass with caller-supplied update matrices —
 * update[l-1] is layer l's row-major hiddenDim x n_in matrix; gin's
 * second MLP matrix and gat's attention vectors stay makeWeights()'s.
 * The trainer's entry point: forward() is this with updateWeights(),
 * keeping only the last layer's hop-0 rows.
 */
Activations forwardLayers(const Subgraph &sg,
                          const graph::FeatureTable &features,
                          const ModelConfig &m,
                          const std::vector<std::vector<float>> &update);

/** Exact compute demand of @p sg (for accelerator timing). */
ComputeWorkload measureCompute(const Subgraph &sg, const ModelConfig &m);

} // namespace beacongnn::gnn

#endif // BEACONGNN_GNN_COMPUTE_H
