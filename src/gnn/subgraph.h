/**
 * @file
 * Sampled subgraph representation: a forest of (node, hop, parent)
 * entries per mini-batch, reconstructible from streaming sampling
 * results (batch id / parent slot metadata of Fig. 13).
 */

#ifndef BEACONGNN_GNN_SUBGRAPH_H
#define BEACONGNN_GNN_SUBGRAPH_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace beacongnn::gnn {

/** Slot index inside a mini-batch subgraph. */
using Slot = std::uint32_t;

inline constexpr Slot kNoParent = ~Slot{0};

/** One sampled node instance. */
struct SubgraphEntry
{
    graph::NodeId node = 0;
    std::uint8_t hop = 0;
    Slot parent = kNoParent; ///< Slot of the parent instance.
};

/** The sampled subgraphs of one mini-batch (all targets together). */
class Subgraph
{
  public:
    /** Append an entry; @return its slot. */
    Slot
    add(graph::NodeId node, std::uint8_t hop, Slot parent)
    {
        entries.push_back({node, hop, parent});
        return static_cast<Slot>(entries.size() - 1);
    }

    /** Make room for @p n entries in one allocation. */
    void reserve(std::size_t n) { entries.reserve(n); }

    const std::vector<SubgraphEntry> &all() const { return entries; }
    std::size_t size() const { return entries.size(); }
    const SubgraphEntry &operator[](Slot s) const { return entries[s]; }

    /** Children slots per slot (built on demand). */
    std::vector<std::vector<Slot>>
    childrenIndex() const
    {
        std::vector<std::vector<Slot>> idx(entries.size());
        for (Slot s = 0; s < entries.size(); ++s) {
            if (entries[s].parent != kNoParent)
                idx[entries[s].parent].push_back(s);
        }
        return idx;
    }

    /** Number of entries at each hop (size = max hop + 1). */
    std::vector<std::uint32_t>
    hopCounts() const
    {
        std::vector<std::uint32_t> counts;
        for (const auto &e : entries) {
            if (counts.size() <= e.hop)
                counts.resize(e.hop + 1, 0);
            ++counts[e.hop];
        }
        return counts;
    }

    void clear() { entries.clear(); }

  private:
    std::vector<SubgraphEntry> entries;
};

} // namespace beacongnn::gnn

#endif // BEACONGNN_GNN_SUBGRAPH_H
