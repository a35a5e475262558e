/**
 * @file
 * Frames of the two customized ONFI GNN commands of Section VI-C: a
 * global GNN configuration command (issued once per die before a
 * task) and a sampling command (read a page + sample neighbours on
 * the die). Frames mirror Fig. 13 of the paper.
 */

#ifndef BEACONGNN_FLASH_ONFI_H
#define BEACONGNN_FLASH_ONFI_H

#include <cstdint>
#include <vector>

#include "flash/address.h"

namespace beacongnn::flash {

/**
 * Global GNN configuration delivered to every die before a task
 * (Fig. 13, "global configurations").
 */
struct GnnGlobalConfig
{
    std::uint8_t hops = 3;          ///< Number of sampling hops.
    std::uint8_t fanout = 3;        ///< Samples per node per hop.
    std::uint16_t featureDim = 128; ///< Feature vector length (elements).
    std::uint8_t featureBytesPerElem = 2; ///< FP16 features.
    std::uint64_t seed = 1;         ///< Sampling seed (models TRNG seeding).
    /** Per-hop fanout schedule (empty = uniform `fanout`); one extra
     *  config byte per hop on the broadcast frame when present. */
    std::vector<std::uint8_t> fanouts;
    /** Per-edge coefficient payload (attention models); widens each
     *  emitted next-hop edge in the result frame. Zero = none. */
    std::uint8_t edgeCoeffBytes = 0;

    std::uint32_t
    featureBytes() const
    {
        return std::uint32_t{featureDim} * featureBytesPerElem;
    }

    /** Samples per node at hop @p h. */
    std::uint8_t
    fanoutAt(unsigned h) const
    {
        if (fanouts.empty())
            return fanout;
        return h < fanouts.size() ? fanouts[h] : fanouts.back();
    }
};

/** GnnSampleParams::nodeHint of a command that expects no particular
 *  node (a primary child: the die knows only its address). */
inline constexpr std::uint64_t kNoNodeHint = ~std::uint64_t{0};

/**
 * Per-command sampling parameters (Fig. 13, "sampling parameters").
 * Delivered over the data bus alongside the custom opcode.
 */
struct GnnSampleParams
{
    Ppa ppa = 0;                 ///< Page to read.
    std::uint8_t sectionIndex = 0; ///< Section within the page (4 bits).
    std::uint8_t hop = 0;        ///< Hop id of this command.
    /** Number of samples to draw (coalesced count for secondaries). */
    std::uint8_t sampleCount = 0;
    bool isSecondary = false;    ///< Target is a secondary section.
    /** Ordinal of the target among the owner's secondaries (keys the
     *  coalesced re-draws so they are reproducible out of order). */
    std::uint16_t secondaryOrdinal = 0;
    /** First draw index of this command within the section (nonzero
     *  only when coalescing is disabled for ablation). */
    std::uint8_t firstDraw = 0;
    bool retrieveFeature = true; ///< Return the feature vector (primary).
    bool finalHop = false;       ///< Do not generate further samples.
    /** Subgraph reconstruction metadata (batch id / parent slot). */
    std::uint32_t batchId = 0;
    std::uint32_t parentSlot = 0;
    /** Node the section must belong to (targets and secondary
     *  continuations carry it; kNoNodeHint = none). The §VI-E check
     *  aborts a command whose section names another node. */
    std::uint64_t nodeHint = kNoNodeHint;
};

/**
 * Result frame of a sampling command (Fig. 13, "sampling results"):
 * header + retrieved feature vector (primary sections only) + the
 * follow-up commands the die emits for the sampled neighbours
 * (consumed by the channel-level router in BG-2 or the firmware
 * otherwise). The engine keeps one frame per device lane and the
 * sampler rewrites it per command, so the follow list's capacity is
 * reused: a command emits at most 255 follow-ups (its 8-bit fanout or
 * sample count), and after the first few commands none allocates.
 */
struct GnnSampleResult
{
    bool ok = true;               ///< Section checks passed (§VI-E).
    std::uint64_t nodeId = 0;     ///< Node the section belongs to.
    bool featureIncluded = false;
    std::uint32_t featureBytes = 0;
    /** Follow-up commands to route (next-hop / secondary reads). */
    std::vector<GnnSampleParams> follow;
    /** Per-edge coefficient payload bytes (GAT attention logits
     *  computed beside the sampler); zero for sum-style models. */
    std::uint32_t edgeCoeffBytes = 0;

    /** Empty the frame for the next command, keeping the follow
     *  list's capacity. */
    void
    reset()
    {
        ok = true;
        nodeId = 0;
        featureIncluded = false;
        featureBytes = 0;
        follow.clear();
        edgeCoeffBytes = 0;
    }

    /** Frame size on the channel bus, in bytes (header = 16 B). */
    std::uint32_t
    frameBytes() const
    {
        std::uint32_t b = 16;
        if (featureIncluded)
            b += featureBytes;
        b += static_cast<std::uint32_t>(follow.size()) * 12;
        b += edgeCoeffBytes;
        return b;
    }
};

} // namespace beacongnn::flash

#endif // BEACONGNN_FLASH_ONFI_H
