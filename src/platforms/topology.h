/**
 * @file
 * Array topology configuration (§VIII): how many BeaconGNN SSDs run
 * one workload, how their P2P links are provisioned, and how the
 * graph is partitioned across them. `devices = 1` is exactly the
 * single-SSD platform of the evaluation section — every run carries a
 * TopologyConfig and the degenerate value changes nothing.
 */

#ifndef BEACONGNN_PLATFORMS_TOPOLOGY_H
#define BEACONGNN_PLATFORMS_TOPOLOGY_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "sim/types.h"

namespace beacongnn::platforms {

/** Graph-partition policy of a computational storage array. */
enum class PartitionPolicy : std::uint8_t
{
    Hash,     ///< splitmix64(node) % devices (paper §VIII default).
    Range,    ///< Contiguous equal node-id ranges.
    Balanced, ///< Degree-aware greedy (LPT on node degree).
};

/** Scale-out topology of one run. devices = 1 ≡ today's single SSD. */
struct TopologyConfig
{
    unsigned devices = 1;            ///< BeaconGNN SSDs in the array.
    double p2pMBps = 4000.0;         ///< Per-device P2P port bandwidth.
    sim::Tick p2pLatency = sim::microseconds(1); ///< Link hop latency.
    PartitionPolicy partition = PartitionPolicy::Hash;
    /**
     * Replication factor R of the placement layer (DESIGN.md §17):
     * every node is served by R distinct devices (chained
     * declustering off its policy-assigned primary), clamped to the
     * device count. R = 1 (default) is exactly the historical single-
     * owner partition — byte-identical by construction.
     */
    unsigned replication = 1;

    bool multi() const { return devices > 1; }

    /** Effective replication factor (clamped to the device count). */
    unsigned
    effectiveReplication() const
    {
        return std::max(1u, std::min(replication, devices));
    }
};

/** Short display name ("hash", "range", "balanced"). */
const char *partitionPolicyName(PartitionPolicy policy);

/** Lookup by display name (case-insensitive); empty when unknown. */
std::optional<PartitionPolicy>
findPartitionPolicy(const std::string &name);

/** All policy display names, comma-separated (for CLI messages). */
std::string partitionPolicyList();

} // namespace beacongnn::platforms

#endif // BEACONGNN_PLATFORMS_TOPOLOGY_H
