/**
 * @file
 * DirectGraph construction (Algorithm 1, §VI-B).
 *
 * Step 1 (metadata collection): for every node, compute the number and
 * sizes of its primary and secondary sections from the neighbour-list
 * length and feature dimension alone, and map sections onto physical
 * pages drawn from the firmware-reserved block list.
 *
 * Step 2 (serialization): encode each page in a host buffer — headers,
 * secondary refs, feature vector, neighbour addresses — and flush it
 * to its PPA (materialize()).
 *
 * Section placement uses a bounded best-fit open-page pool,
 * implementing the paper's "linked array" compaction of small primary
 * sections into shared pages.
 */

#ifndef BEACONGNN_DIRECTGRAPH_BUILDER_H
#define BEACONGNN_DIRECTGRAPH_BUILDER_H

#include <span>

#include "directgraph/codec.h"
#include "directgraph/layout.h"
#include "flash/config.h"
#include "flash/page_store.h"
#include "graph/graph.h"

namespace beacongnn::dg {

/** Tunables of the construction algorithm. */
struct BuilderOptions
{
    /** Open pages kept for best-fit packing before force-closing. */
    unsigned openPagePool = 128;
    /** Blocks the page allocator stripes across (0 = one block per
     *  die, the default; 1 = sequential fill, the ablation point). */
    unsigned stripeWidth = 0;
};

/**
 * Blocks to reserve for the layout of @p g and @p features (§VI-A):
 * three times the raw volume — generous headroom for inflation —
 * rounded up to whole blocks plus 16, and at least one block per die
 * plus 8.
 */
std::uint64_t reservedBlockCount(const graph::Graph &g,
                                 const graph::FeatureTable &features,
                                 const flash::FlashConfig &cfg);

/**
 * Compute the full DirectGraph layout (Algorithm 1, step 1).
 *
 * @param g        Raw graph structure.
 * @param features Node feature table (only its dimension matters here).
 * @param cfg      Flash geometry (page size, pages per block).
 * @param blocks   Reserved physical blocks granted by the firmware
 *                 (§VI-A); consumed in order. fatal() if exhausted.
 */
DirectGraphLayout buildLayout(const graph::Graph &g,
                              const graph::FeatureTable &features,
                              const flash::FlashConfig &cfg,
                              std::span<const flash::BlockId> blocks,
                              const BuilderOptions &opts = {});

/**
 * Serialize one page of the layout into @p buf (Algorithm 1, step 2).
 * @p buf must hold pageSize bytes and is fully overwritten.
 */
void encodePageImage(const DirectGraphLayout &layout, const graph::Graph &g,
                     const graph::FeatureTable &features, flash::Ppa ppa,
                     std::span<std::uint8_t> buf);

/**
 * Materialize every page of @p layout into the flash page store
 * (functional-mode flush; the timing of the flush path is modelled by
 * the firmware's flushDirectGraph()).
 */
void materialize(const DirectGraphLayout &layout, const graph::Graph &g,
                 const graph::FeatureTable &features,
                 flash::PageStore &store);

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_BUILDER_H
