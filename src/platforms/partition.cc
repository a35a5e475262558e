#include "platforms/partition.h"

#include <algorithm>
#include <cctype>

#include "sim/log.h"
#include "sim/rng.h"

namespace beacongnn::platforms {

const char *
partitionPolicyName(PartitionPolicy policy)
{
    switch (policy) {
    case PartitionPolicy::Hash: return "hash";
    case PartitionPolicy::Range: return "range";
    case PartitionPolicy::Balanced: return "balanced";
    }
    return "?";
}

std::optional<PartitionPolicy>
findPartitionPolicy(const std::string &name)
{
    std::string lower;
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "hash")
        return PartitionPolicy::Hash;
    if (lower == "range")
        return PartitionPolicy::Range;
    if (lower == "balanced")
        return PartitionPolicy::Balanced;
    return std::nullopt;
}

std::string
partitionPolicyList()
{
    return "hash, range, balanced";
}

Partition
Partition::build(const graph::Graph &g, PartitionPolicy policy,
                 unsigned devices)
{
    if (devices == 0)
        sim::fatal("Partition::build: zero devices");
    Partition p;
    p._devices = devices;
    p._policy = policy;
    p.nodeCount.assign(devices, 0);
    p.degreeSum.assign(devices, 0);
    const graph::NodeId n = g.numNodes();
    if (devices == 1) {
        p.nodeCount[0] = n;
        for (graph::NodeId v = 0; v < n; ++v)
            p.degreeSum[0] += g.degree(v);
        return p;
    }

    p.owners.resize(n);
    switch (policy) {
    case PartitionPolicy::Hash:
        // The paper's §VIII scheme (and the historical array
        // behaviour): a keyed hash spreads nodes uniformly, so the
        // cross-device fraction of a random child approaches
        // (devices-1)/devices.
        for (graph::NodeId v = 0; v < n; ++v)
            p.owners[v] =
                static_cast<std::uint32_t>(sim::splitmix64(v) % devices);
        break;
    case PartitionPolicy::Range:
        // Contiguous equal node-id ranges: preserves locality of id-
        // clustered communities at the cost of degree imbalance on
        // skewed graphs.
        for (graph::NodeId v = 0; v < n; ++v)
            p.owners[v] = static_cast<std::uint32_t>(
                (std::uint64_t{v} * devices) / std::max<graph::NodeId>(1, n));
        break;
    case PartitionPolicy::Balanced: {
        // Degree-aware LPT greedy: place nodes in decreasing degree
        // order on the device with the least total degree. Guarantees
        // max load <= avg load + max node degree, so heavy-tailed
        // graphs cannot starve a device. Ties break on node id and
        // device index for determinism.
        std::vector<graph::NodeId> order(n);
        for (graph::NodeId v = 0; v < n; ++v)
            order[v] = v;
        std::stable_sort(order.begin(), order.end(),
                         [&](graph::NodeId a, graph::NodeId b) {
                             return g.degree(a) > g.degree(b);
                         });
        std::vector<std::uint64_t> load(devices, 0);
        for (graph::NodeId v : order) {
            unsigned best = 0;
            for (unsigned d = 1; d < devices; ++d)
                if (load[d] < load[best])
                    best = d;
            p.owners[v] = best;
            // Count a degree-0 node as one load unit so isolated
            // nodes still spread instead of piling on device 0.
            load[best] += std::max<std::uint64_t>(1, g.degree(v));
        }
        break;
    }
    }

    for (graph::NodeId v = 0; v < n; ++v) {
        ++p.nodeCount[p.owners[v]];
        p.degreeSum[p.owners[v]] += g.degree(v);
    }
    return p;
}

std::uint64_t
Partition::degreeSpread() const
{
    std::uint64_t lo = degreeSum[0], hi = degreeSum[0];
    for (std::uint64_t s : degreeSum) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    return hi - lo;
}

} // namespace beacongnn::platforms
