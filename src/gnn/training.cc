#include "gnn/training.h"

#include <cmath>
#include <string>

#include "sim/log.h"
#include "sim/rng.h"

namespace beacongnn::gnn {

TrainState
TrainState::init(const ModelConfig &m)
{
    return TrainState{updateWeights(m)};
}

float
pseudoLabel(graph::NodeId v, std::uint16_t i, std::uint16_t dim,
            std::uint64_t seed)
{
    (void)dim;
    auto bits = sim::splitmix64(seed ^ 0xfeedf00dull ^
                                (std::uint64_t{v} << 17) ^ i);
    return (static_cast<float>(bits & 0xffff) / 32768.0f - 1.0f) * 0.1f;
}

namespace {

/** Slots of the hop-0 entries (the targets), in subgraph order. */
std::vector<Slot>
targetSlots(const Subgraph &sg)
{
    std::vector<Slot> targets;
    for (Slot s = 0; s < sg.size(); ++s)
        if (sg[s].hop == 0)
            targets.push_back(s);
    return targets;
}

/** Mean squared error of the @p top rows of @p targets against their
 *  pseudo-labels; fills @p d_top (if nonnull) with its gradient. */
double
mseLoss(const Subgraph &sg, const std::vector<Slot> &targets,
        const std::vector<std::vector<float>> &top, const ModelConfig &m,
        std::vector<std::vector<float>> *d_top)
{
    double n = static_cast<double>(targets.size()) * m.hiddenDim;
    double loss = 0;
    for (Slot t : targets) {
        if (d_top)
            (*d_top)[t].assign(m.hiddenDim, 0.0f);
        for (std::uint16_t i = 0; i < m.hiddenDim; ++i) {
            float y = pseudoLabel(sg[t].node, i, m.hiddenDim, m.seed);
            float diff = top[t][i] - y;
            double d = static_cast<double>(diff);
            loss += 0.5 * d * d;
            if (d_top)
                (*d_top)[t][i] = static_cast<float>(d / n);
        }
    }
    return n == 0 ? 0.0 : loss / n;
}

} // namespace

StepResult
trainStep(const Subgraph &sg, const graph::FeatureTable &features,
          const ModelConfig &m, TrainState &state, float lr,
          std::vector<std::vector<float>> *grad_out)
{
    if (m.kind != ModelKind::GCN)
        sim::fatal(std::string("trainStep: only gcn is differentiable "
                               "in this build, not ") +
                   modelKindName(m.kind));
    if (state.weights.size() != m.hops)
        sim::fatal("trainStep: state does not match the model depth");

    StepResult res;
    const auto &entries = sg.all();
    auto children = sg.childrenIndex();
    const Activations act = forwardLayers(sg, features, m, state.weights);
    // gcn's forward MACs are exactly its update GEMMs.
    res.macsForward = measureCompute(sg, m).totalMacs();

    // ---- Loss on the hop-0 embeddings --------------------------------
    const std::vector<Slot> targets = targetSlots(sg);
    if (targets.empty())
        return res;
    // dAct at the top layer.
    std::vector<std::vector<float>> d_act(entries.size());
    res.loss = mseLoss(sg, targets, act[m.hops], m, &d_act);

    // ---- Backward -----------------------------------------------------
    std::vector<std::vector<float>> grads(m.hops);
    for (unsigned l = m.hops; l >= 1; --l) {
        std::uint32_t n_in = TrainState::layerInputDim(m, l);
        std::uint32_t n_out = m.hiddenDim;
        const auto &w = state.weights[l - 1];
        auto &dw = grads[l - 1];
        dw.assign(w.size(), 0.0f);
        unsigned max_hop = m.hops - l;

        std::vector<std::vector<float>> d_prev(entries.size());
        for (Slot s = 0; s < entries.size(); ++s) {
            if (entries[s].hop > max_hop || d_act[s].empty())
                continue;
            // Through the ReLU: act > 0 <=> pre > 0.
            std::vector<float> d_pre(n_out);
            for (std::uint32_t o = 0; o < n_out; ++o)
                d_pre[o] = act[l][s][o] > 0.0f ? d_act[s][o] : 0.0f;
            // The sum aggregate layer l read, added in the forward
            // pass's order.
            std::vector<float> a = act[l - 1][s];
            for (Slot c : children[s])
                for (std::uint32_t i = 0; i < n_in; ++i)
                    a[i] += act[l - 1][c][i];
            // Weight gradient and input gradient.
            std::vector<float> d_agg(n_in, 0.0f);
            for (std::uint32_t o = 0; o < n_out; ++o) {
                float dp = d_pre[o];
                if (dp == 0.0f)
                    continue;
                float *dw_row = dw.data() + std::size_t{o} * n_in;
                const float *w_row = w.data() + std::size_t{o} * n_in;
                for (std::uint32_t i = 0; i < n_in; ++i) {
                    dw_row[i] += dp * a[i];
                    d_agg[i] += dp * w_row[i];
                }
            }
            res.macsBackward += 2ull * n_in * n_out;
            // Sum aggregation distributes the gradient to the slot
            // itself and every child.
            auto add_to = [&](Slot dst) {
                if (d_prev[dst].empty())
                    d_prev[dst].assign(n_in, 0.0f);
                for (std::uint32_t i = 0; i < n_in; ++i)
                    d_prev[dst][i] += d_agg[i];
            };
            add_to(s);
            for (Slot c : children[s])
                add_to(c);
        }
        d_act = std::move(d_prev);
    }

    // ---- Gradient norm + SGD update -----------------------------------
    double norm2 = 0;
    for (const auto &gw : grads)
        for (float v : gw)
            norm2 += static_cast<double>(v) * static_cast<double>(v);
    res.gradNorm = std::sqrt(norm2);
    if (lr != 0.0f) {
        for (unsigned l = 0; l < m.hops; ++l)
            for (std::size_t i = 0; i < grads[l].size(); ++i)
                state.weights[l][i] -= lr * grads[l][i];
    }
    if (grad_out)
        *grad_out = std::move(grads);
    return res;
}

std::vector<std::vector<float>>
forwardWith(const Subgraph &sg, const graph::FeatureTable &features,
            const ModelConfig &m, const TrainState &state)
{
    Activations act = forwardLayers(sg, features, m, state.weights);
    std::vector<std::vector<float>> out;
    for (Slot t : targetSlots(sg))
        out.push_back(std::move(act[m.hops][t]));
    return out;
}

double
evaluateLoss(const Subgraph &sg, const graph::FeatureTable &features,
             const ModelConfig &m, const TrainState &state)
{
    return mseLoss(sg, targetSlots(sg),
                   forwardLayers(sg, features, m, state.weights)[m.hops],
                   m, nullptr);
}

} // namespace beacongnn::gnn
