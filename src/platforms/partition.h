/**
 * @file
 * Graph partitioner for the computational storage array (§VIII): maps
 * every node to its owning device under a pluggable policy. The map
 * is a pure function of (graph, policy, devices) — rebuilding it for
 * the same inputs yields the same ownership, so array runs stay
 * deterministic and keyed sampling produces identical subgraphs for
 * every partitioning.
 */

#ifndef BEACONGNN_PLATFORMS_PARTITION_H
#define BEACONGNN_PLATFORMS_PARTITION_H

#include <vector>

#include "graph/graph.h"
#include "platforms/topology.h"

namespace beacongnn::platforms {

/**
 * Node → device ownership map under a single-owner policy: the
 * primary owner of every node. The replicas of a replicated array
 * (DESIGN.md §17) chain off this owner in the engine's router —
 * replica k of a node lives on (owner + k) % devices.
 */
class Partition
{
  public:
    /** Degenerate single-device partition (every node on device 0). */
    Partition() = default;

    /** Build the ownership map of @p g under @p policy. */
    static Partition build(const graph::Graph &g,
                           PartitionPolicy policy, unsigned devices);

    unsigned devices() const { return _devices; }
    PartitionPolicy policy() const { return _policy; }

    /** Owning device of @p node (always 0 for a single device). */
    unsigned
    ownerOf(graph::NodeId node) const
    {
        if (_devices <= 1)
            return 0;
        return owners[node];
    }

    /** Node-indexed owner table (empty for a single device). */
    const std::vector<std::uint32_t> &table() const { return owners; }

    /** Nodes owned by device @p dev. */
    std::uint64_t nodesOn(unsigned dev) const { return nodeCount[dev]; }

    /** Total degree (adjacency work) owned by device @p dev. */
    std::uint64_t
    degreeOn(unsigned dev) const
    {
        return degreeSum[dev];
    }

    /** Max-over-min device load spread, in total degree. */
    std::uint64_t degreeSpread() const;

  private:
    unsigned _devices = 1;
    PartitionPolicy _policy = PartitionPolicy::Hash;
    std::vector<std::uint32_t> owners;
    std::vector<std::uint64_t> nodeCount{0};
    std::vector<std::uint64_t> degreeSum{0};
};

} // namespace beacongnn::platforms

#endif // BEACONGNN_PLATFORMS_PARTITION_H
