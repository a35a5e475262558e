/**
 * @file
 * GNN task configuration. The historical configuration (§VII-A) is
 * K-hop subgraphs with a fixed fanout, vector_sum aggregation and a
 * perceptron update per layer, FP16 128-dim intermediate embeddings —
 * the `gcn` entry of the model zoo. ModelSpec generalizes it into a
 * named aggregate/combine pair (gcn | gin | gat) — the kind alone
 * fixes the aggregation — plus an optional per-hop fanout schedule;
 * the in-storage engines consume the same spec, so every platform
 * runs every model. Subgraph node counts are 64-bit and saturate, so
 * a deep model's size is a clamp, not a wrap.
 */

#ifndef BEACONGNN_GNN_MODEL_H
#define BEACONGNN_GNN_MODEL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace beacongnn::gnn {

/**
 * Named aggregate/combine pairs of the model zoo. The kind selects
 * the functional forward pass, the per-layer GEMM/vector-op shapes
 * the accelerator times, and the per-edge payload bytes the sampling
 * frames carry.
 */
enum class ModelKind : std::uint8_t
{
    GCN, ///< vector_sum + single perceptron — the historical task.
    GIN, ///< (1+eps)·own + sum, two-layer MLP combine.
    GAT, ///< attention-weighted sum with per-edge coefficients.
};

/** Display name of a model kind ("gcn"). */
const char *modelKindName(ModelKind k);

/** Case-insensitive lookup; nullopt for unknown names. */
std::optional<ModelKind> findModelKind(std::string_view name);

/** Comma-separated valid model names (for CLI error messages). */
std::string modelKindList();

/** One GEMM of the update step (timing input for the accelerator). */
struct GemmShape
{
    std::uint64_t m = 0; ///< Rows (nodes updated).
    std::uint64_t n = 0; ///< Output dimension.
    std::uint64_t k = 0; ///< Input dimension.

    std::uint64_t macs() const { return m * n * k; }
};

/** Aggregate compute demand of one mini-batch. */
struct ComputeWorkload
{
    std::vector<GemmShape> gemms;       ///< Update-step GEMMs.
    std::uint64_t aggregateElements = 0; ///< Vector-sum element ops.
    /** Per-edge element ops beyond the plain sum: GAT attention
     *  coefficient math, GIN epsilon scaling. Zero for gcn, so the
     *  historical accelerator timing is untouched. */
    std::uint64_t edgeOps = 0;

    std::uint64_t
    totalMacs() const
    {
        std::uint64_t t = 0;
        for (const auto &g : gemms)
            t += g.macs();
        return t;
    }
};

/** Static description of the GNN task. */
struct ModelSpec
{
    ModelKind kind = ModelKind::GCN; ///< Aggregate/combine pair.
    std::uint8_t hops = 3;       ///< K (sampling depth).
    std::uint8_t fanout = 3;     ///< Neighbours sampled per node/hop.
    /** Per-hop fanout schedule: fanouts[h] children per hop-h node.
     *  Empty = uniform `fanout` every hop (the historical shape).
     *  normalizeFanouts() collapses an all-equal schedule back to the
     *  uniform scalar, so `--fanouts 3,3,3` is byte-identical to
     *  `fanout=3` everywhere (config frames included). */
    std::vector<std::uint8_t> fanouts;
    std::uint16_t featureDim = 128; ///< Input feature dimension.
    std::uint16_t hiddenDim = 128;  ///< Intermediate embedding dim.
    std::uint64_t seed = 1;      ///< Sampling / weight seed.
    float epsilon = 0.1f;        ///< GIN self-loop weight (1+eps).
    std::uint8_t heads = 1;      ///< GAT attention heads.

    /** Fanout of hop @p h (children per hop-h node). */
    std::uint8_t
    fanoutAt(unsigned h) const
    {
        if (fanouts.empty())
            return fanout;
        return h < fanouts.size() ? fanouts[h] : fanouts.back();
    }

    /** True when every hop samples the same `fanout`. */
    bool uniformFanout() const { return fanouts.empty(); }

    /**
     * Canonicalize the fanout schedule: an all-equal (or empty)
     * schedule collapses to the uniform scalar, and a short schedule
     * is padded semantics-preserving by fanoutAt(). Call after
     * parsing CLI input so equal specs compare equal and broadcast
     * identical config frames.
     */
    void normalizeFanouts();

    /** Per-edge coefficient bytes the sampling frames carry (GAT
     *  attention logits, FP16 per head); zero otherwise. */
    std::uint32_t
    edgeCoeffBytes() const
    {
        return kind == ModelKind::GAT ? 2u * heads : 0u;
    }

    /** Nodes in a full k-hop subgraph per target (40 for 3/3). The
     *  node counts saturate at the uint64 maximum instead of wrapping
     *  (3^20 nodes at hops 20 and fanout 3 already pass 2^32). */
    std::uint64_t
    subgraphNodes() const
    {
        return nodesThroughHop(hops);
    }

    /** Nodes at hops 0..h inclusive. */
    std::uint64_t
    nodesThroughHop(unsigned h) const
    {
        std::uint64_t total = 0;
        for (unsigned i = 0; i <= h && i <= hops; ++i)
            if (__builtin_add_overflow(total, nodesAtHop(i), &total))
                return ~std::uint64_t{0};
        return total;
    }

    /** Nodes at exactly hop @p h of a full subgraph per target. */
    std::uint64_t
    nodesAtHop(unsigned h) const
    {
        std::uint64_t level = 1;
        for (unsigned i = 0; i < h && i <= hops; ++i)
            if (__builtin_mul_overflow(level, fanoutAt(i), &level))
                return ~std::uint64_t{0};
        return level;
    }

    /**
     * Expected compute demand of @p batch_size targets, shaped by the
     * model kind: gcn reproduces the historical single-GEMM estimate
     * exactly; gin adds the second MLP matrix and epsilon scaling;
     * gat adds per-edge attention vector work.
     */
    ComputeWorkload workFor(std::uint32_t batch_size) const;

    friend bool operator==(const ModelSpec &,
                           const ModelSpec &) = default;
};

/** Historical name; every layer consumes the same spec. */
using ModelConfig = ModelSpec;

/**
 * Parse a comma-separated per-hop fanout list ("3,2,2"); nullopt on
 * malformed input (empty, non-numeric, zero, or > 255 entries).
 */
std::optional<std::vector<std::uint8_t>>
parseFanouts(std::string_view list);

/**
 * Expected compute demand of @p batch_size targets (used by the
 * timing model; the functional path computes the real thing).
 */
inline ComputeWorkload
estimateCompute(const ModelConfig &m, std::uint32_t batch_size)
{
    return m.workFor(batch_size);
}

} // namespace beacongnn::gnn

#endif // BEACONGNN_GNN_MODEL_H
