#include "gnn/compute.h"

#include <algorithm>
#include <cmath>

#include "gnn/half.h"
#include "sim/rng.h"

namespace beacongnn::gnn {

std::vector<float>
makeWeights(std::uint64_t seed, unsigned layer, std::uint32_t n_out,
            std::uint32_t n_in)
{
    std::vector<float> w(std::size_t{n_out} * n_in);
    // Xavier scale keeps activation magnitudes stable across layers.
    float scale = 1.7f / std::sqrt(static_cast<float>(n_in));
    for (std::size_t i = 0; i < w.size(); ++i) {
        auto bits = sim::splitmix64(seed ^ (std::uint64_t{layer} << 48) ^ i);
        float u = static_cast<float>(bits & 0xffff) / 65536.0f;
        w[i] = (2.0f * u - 1.0f) * scale;
    }
    return w;
}

std::vector<std::vector<float>>
updateWeights(const ModelConfig &m)
{
    std::vector<std::vector<float>> update;
    for (unsigned l = 1; l <= m.hops; ++l)
        update.push_back(makeWeights(m.seed, l, m.hiddenDim,
                                     l == 1 ? m.featureDim : m.hiddenDim));
    return update;
}

namespace {

/** Layer tag offsets keep the extra GIN/GAT matrices on independent
 *  pseudo-random streams from the layer-l update weights. */
constexpr unsigned kMlpLayerTag = 64;
constexpr unsigned kAttnLayerTag = 128;

/** How a datapath stores a value: `fp32` keeps it, toHalfPrecision
 *  rounds it through IEEE binary16. */
using Store = float (*)(float);

constexpr float
fp32(float x)
{
    return x;
}

/** The datapath's copy of a weight matrix. */
template <Store store>
std::vector<float>
stored(std::vector<float> w)
{
    for (auto &x : w)
        x = store(x);
    return w;
}

/** y = relu(W x), W row-major n_out x n_in: the systolic array
 *  accumulates in FP32 and stores each output. */
template <Store store>
void
perceptron(const std::vector<float> &w, std::uint32_t n_out,
           std::uint32_t n_in, const std::vector<float> &x,
           std::vector<float> &y)
{
    y.assign(n_out, 0.0f);
    for (std::uint32_t o = 0; o < n_out; ++o) {
        float acc = 0.0f;
        const float *row = w.data() + std::size_t{o} * n_in;
        for (std::uint32_t i = 0; i < n_in; ++i)
            acc += row[i] * x[i];
        y[o] = store(std::max(0.0f, acc));
    }
}

float
leakyRelu(float x)
{
    return x > 0.0f ? x : 0.2f * x;
}

/** Attention logit of one edge: <a_self, h_self> + <a_nbr, h_nbr>
 *  through a leaky ReLU; `a` is row-major 2 x n_in (self row 0). */
float
attnScore(const std::vector<float> &a, std::uint32_t n_in,
          const std::vector<float> &self, const std::vector<float> &nbr)
{
    float acc = 0.0f;
    for (std::uint32_t i = 0; i < n_in; ++i)
        acc += a[i] * self[i] + a[std::size_t{n_in} + i] * nbr[i];
    return leakyRelu(acc);
}

/**
 * The one message-passing kernel (Eq. 1): K layers of AGGREGATE over
 * N(u) u {u} and a perceptron COMBINE, shaped by the model kind. The
 * datapath stores every feature, weight, aggregate add, GIN gain, GAT
 * weight and product term and perceptron output; attention logits
 * stay FP32. update[l-1] is layer l's update matrix.
 */
template <Store store>
Activations
messagePass(const Subgraph &sg, const graph::FeatureTable &features,
            const ModelConfig &m,
            const std::vector<std::vector<float>> &update)
{
    const auto &entries = sg.all();
    auto children = sg.childrenIndex();

    Activations act(m.hops + 1u);
    for (auto &layer : act)
        layer.resize(entries.size());
    for (Slot s = 0; s < entries.size(); ++s) {
        act[0][s].resize(m.featureDim);
        for (std::uint16_t i = 0; i < m.featureDim; ++i)
            act[0][s][i] = store(features.value(entries[s].node, i));
    }

    const float gain = store(1.0f + m.epsilon);
    std::vector<float> agg;
    std::vector<float> hidden;
    std::vector<float> scores;
    for (unsigned l = 1; l <= m.hops; ++l) {
        const auto &cur = act[l - 1];
        std::uint32_t n_in = (l == 1) ? m.featureDim : m.hiddenDim;
        std::uint32_t n_out = m.hiddenDim;
        const auto w = stored<store>(update[l - 1]);
        std::vector<float> w2;
        std::vector<float> attn;
        if (m.kind == ModelKind::GIN)
            w2 = stored<store>(
                makeWeights(m.seed, l + kMlpLayerTag, n_out, n_out));
        else if (m.kind == ModelKind::GAT)
            attn = stored<store>(
                makeWeights(m.seed, l + kAttnLayerTag, 2, n_in));
        unsigned max_hop = m.hops - l; // Entries still needed at layer l.
        for (Slot s = 0; s < entries.size(); ++s) {
            if (entries[s].hop > max_hop)
                continue;
            if (m.kind == ModelKind::GAT) {
                // Softmax-attention weighted sum.
                scores.clear();
                scores.push_back(attnScore(attn, n_in, cur[s], cur[s]));
                for (Slot c : children[s])
                    scores.push_back(attnScore(attn, n_in, cur[s], cur[c]));
                float peak =
                    *std::max_element(scores.begin(), scores.end());
                float norm = 0.0f;
                for (auto &sc : scores) {
                    sc = std::exp(sc - peak);
                    norm += sc;
                }
                agg.assign(n_in, 0.0f);
                const float own = store(scores[0] / norm);
                for (std::uint32_t i = 0; i < n_in; ++i)
                    agg[i] = store(own * cur[s][i]);
                for (std::size_t ci = 0; ci < children[s].size(); ++ci) {
                    const float alpha = store(scores[ci + 1] / norm);
                    const auto &child = cur[children[s][ci]];
                    for (std::uint32_t i = 0; i < n_in; ++i)
                        agg[i] = store(agg[i] + store(alpha * child[i]));
                }
            } else {
                // Own embedding (times 1 + eps for gin) plus children.
                agg = cur[s];
                if (m.kind == ModelKind::GIN)
                    for (auto &v : agg)
                        v = store(v * gain);
                for (Slot c : children[s])
                    for (std::uint32_t i = 0; i < n_in; ++i)
                        agg[i] = store(agg[i] + cur[c][i]);
            }
            if (m.kind == ModelKind::GIN) {
                // Two-layer MLP combine.
                perceptron<store>(w, n_out, n_in, agg, hidden);
                perceptron<store>(w2, n_out, n_out, hidden, act[l][s]);
            } else {
                perceptron<store>(w, n_out, n_in, agg, act[l][s]);
            }
        }
    }
    return act;
}

/** The last layer's hop-0 rows, in subgraph order. */
std::vector<std::vector<float>>
targetRows(const Subgraph &sg, Activations act)
{
    std::vector<std::vector<float>> out;
    for (Slot s = 0; s < sg.size(); ++s)
        if (sg[s].hop == 0)
            out.push_back(std::move(act.back()[s]));
    return out;
}

} // namespace

std::vector<std::vector<float>>
forward(const Subgraph &sg, const graph::FeatureTable &features,
        const ModelConfig &m)
{
    return targetRows(
        sg, messagePass<fp32>(sg, features, m, updateWeights(m)));
}

std::vector<std::vector<float>>
forwardFp16(const Subgraph &sg, const graph::FeatureTable &features,
            const ModelConfig &m)
{
    return targetRows(sg, messagePass<toHalfPrecision>(
                              sg, features, m, updateWeights(m)));
}

Activations
forwardLayers(const Subgraph &sg, const graph::FeatureTable &features,
              const ModelConfig &m,
              const std::vector<std::vector<float>> &update)
{
    return messagePass<fp32>(sg, features, m, update);
}

ComputeWorkload
measureCompute(const Subgraph &sg, const ModelConfig &m)
{
    ComputeWorkload w;
    auto counts = sg.hopCounts();
    auto through = [&](unsigned h) {
        std::uint64_t t = 0;
        for (unsigned i = 0; i <= h && i < counts.size(); ++i)
            t += counts[i];
        return t;
    };
    // Children per parent hop, in one pass over the entries.
    std::vector<std::uint64_t> child_elems(m.hops + 1, 0);
    for (const SubgraphEntry &e : sg.all()) {
        if (e.parent == kNoParent)
            continue;
        const std::uint8_t parent_hop = sg[e.parent].hop;
        if (parent_hop <= m.hops)
            ++child_elems[parent_hop];
    }

    for (unsigned l = 1; l <= m.hops; ++l) {
        unsigned max_hop = m.hops - l;
        GemmShape g;
        g.m = through(max_hop);
        g.n = m.hiddenDim;
        g.k = (l == 1) ? m.featureDim : m.hiddenDim;
        w.gemms.push_back(g);
        std::uint64_t kids = 0;
        for (unsigned h = 0; h <= max_hop; ++h)
            kids += child_elems[h];
        w.aggregateElements += (kids + g.m) * g.k;
        if (m.kind == ModelKind::GIN) {
            GemmShape g2{g.m, g.n, g.n};
            w.gemms.push_back(g2);
            w.edgeOps += g.m * g.k;
        } else if (m.kind == ModelKind::GAT) {
            w.edgeOps += std::uint64_t(m.heads) * kids * (g.k + 2u);
        }
    }
    return w;
}

} // namespace beacongnn::gnn
