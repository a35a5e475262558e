#include "gnn/sampler.h"

#include <algorithm>

#include "sim/rng.h"

namespace beacongnn::gnn {

Draws
drawUniform(std::uint64_t seed, std::uint64_t batch, std::uint8_t hop,
            graph::NodeId node, std::uint8_t fanout, std::uint32_t degree)
{
    Draws picks;
    if (degree == 0)
        return picks;
    for (std::uint8_t i = 0; i < fanout; ++i)
        picks.push(static_cast<std::uint32_t>(
            sim::keyedBelow(seed, batch, hop, node, i, degree)));
    return picks;
}

PrimaryDraws
drawPrimary(std::uint64_t seed, std::uint64_t batch, std::uint8_t hop,
            graph::NodeId node, std::uint8_t fanout, std::uint32_t degree,
            std::uint32_t in_page, dg::SecondaryList secondaries)
{
    PrimaryDraws out;
    for (std::uint32_t r :
         drawUniform(seed, batch, hop, node, fanout, degree)) {
        if (r < in_page) {
            out.inPage.push(r);
        } else {
            // Locate the secondary section covering index r.
            std::uint32_t start = in_page;
            for (std::size_t j = 0; j < secondaries.size(); ++j) {
                if (r < start + secondaries[j].count) {
                    out.secondary.push(static_cast<std::uint32_t>(j));
                    break;
                }
                start += secondaries[j].count;
            }
        }
    }
    std::sort(out.secondary.begin(), out.secondary.end());
    return out;
}

Draws
drawSecondary(std::uint64_t seed, std::uint64_t batch, std::uint8_t hop,
              graph::NodeId node, std::uint32_t secondary_idx,
              std::uint32_t first_draw, std::uint8_t count,
              std::uint32_t section_size)
{
    Draws picks;
    for (std::uint32_t t = first_draw; t < first_draw + count; ++t) {
        std::uint32_t draw = kSecondaryDrawBase +
                             secondary_idx * kSecondaryDrawStride + t;
        picks.push(static_cast<std::uint32_t>(sim::keyedBelow(
            seed, batch, hop, node, draw, section_size)));
    }
    return picks;
}

namespace {

/** Recursive expansion shared by both disciplines. */
template <typename ChildFn>
void
expand(Subgraph &sg, const ModelConfig &m, graph::NodeId node,
       std::uint8_t hop, Slot parent, ChildFn &&children)
{
    Slot slot = sg.add(node, hop, parent);
    if (hop >= m.hops)
        return;
    for (graph::NodeId c : children(node, hop)) {
        expand(sg, m, c, static_cast<std::uint8_t>(hop + 1), slot,
               children);
    }
}

} // namespace

Subgraph
csrSample(const graph::Graph &g, const ModelConfig &m, std::uint64_t batch,
          std::span<const graph::NodeId> targets)
{
    Subgraph sg;
    auto children = [&](graph::NodeId v,
                        std::uint8_t hop) -> std::vector<graph::NodeId> {
        std::vector<graph::NodeId> out;
        const Draws picks =
            drawUniform(m.seed, batch, hop, v, m.fanoutAt(hop), g.degree(v));
        out.reserve(picks.size());
        for (std::uint32_t r : picks)
            out.push_back(g.neighbor(v, r));
        return out;
    };
    for (graph::NodeId t : targets)
        expand(sg, m, t, 0, kNoParent, children);
    return sg;
}

Subgraph
layoutSample(const graph::Graph &g, const dg::DirectGraphLayout &layout,
             const ModelConfig &m, std::uint64_t batch,
             std::span<const graph::NodeId> targets)
{
    Subgraph sg;
    auto children = [&](graph::NodeId v,
                        std::uint8_t hop) -> std::vector<graph::NodeId> {
        std::vector<graph::NodeId> out;
        const dg::NodeLayout &nl = layout.nodes[v];
        if (nl.degree == 0)
            return out;
        const std::uint8_t fan = m.fanoutAt(hop);
        const PrimaryDraws d =
            drawPrimary(m.seed, batch, hop, v, fan, nl.degree, nl.inPage,
                        dg::SecondaryList(nl.secondaries));
        out.reserve(fan);
        for (std::uint32_t r : d.inPage)
            out.push_back(g.neighbor(v, r));
        d.forEachSecondaryHit([&](std::uint32_t j, std::uint8_t hits) {
            std::uint32_t start = nl.inPage;
            for (std::size_t k = 0; k < j; ++k)
                start += nl.secondaries[k].count;
            for (std::uint32_t idx :
                 drawSecondary(m.seed, batch, hop, v, j, 0, hits,
                               nl.secondaries[j].count))
                out.push_back(g.neighbor(v, start + idx));
        });
        return out;
    };
    for (graph::NodeId t : targets)
        expand(sg, m, t, 0, kNoParent, children);
    return sg;
}

} // namespace beacongnn::gnn
