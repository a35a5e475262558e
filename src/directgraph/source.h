/**
 * @file
 * Section sources: how a sampler obtains the content of a (page,
 * section) address.
 *
 * Two interchangeable implementations back the same sampler logic:
 *  - PageByteSource views real flash page bytes in place (what the
 *    die-level sampler hardware reads in its page register); used by
 *    functional tests and examples.
 *  - LayoutSource answers from builder metadata without materializing
 *    page bytes: its neighbour list is the node's CSR slice, resolved
 *    to primary addresses one entry at a time; used for large timing
 *    runs.
 * Neither copies nor allocates: a fetch returns a SectionData view
 * (directgraph/codec.h), and a sampler resolves only the neighbours it
 * draws. The test suite checks that both return identical content for
 * every address of a materialized graph.
 *
 * Lifetime rule: a view is valid while the bytes (the page store's
 * page), or the layout and graph, behind it are unchanged. Every
 * caller consumes it within one fetch-and-execute step
 * (GnnEngine::sample).
 *
 * LayoutSource resolves an address through the layout's dense section
 * directory (directgraph/layout.h): a fetch is a few array reads, with
 * no hash probe.
 */

#ifndef BEACONGNN_DIRECTGRAPH_SOURCE_H
#define BEACONGNN_DIRECTGRAPH_SOURCE_H

#include <optional>
#include <span>

#include "directgraph/builder.h"
#include "directgraph/codec.h"
#include "flash/page_store.h"

namespace beacongnn::dg {

/** Abstract resolver from DgAddress to decoded section content. */
class SectionSource
{
  public:
    virtual ~SectionSource() = default;

    /**
     * View the section at @p addr (valid under the lifetime rule in
     * the file comment).
     * @return nullopt if the address does not name a valid section —
     *         the on-die check of §VI-E treats that as an abort.
     */
    virtual std::optional<SectionData> fetch(DgAddress addr) const = 0;
};

/** Section source over real page bytes in the flash page store. */
class PageByteSource : public SectionSource
{
  public:
    PageByteSource(const flash::PageStore &store_,
                   std::uint16_t feature_dim)
        : store(store_), featureDim(feature_dim)
    {
    }

    std::optional<SectionData>
    fetch(DgAddress addr) const override
    {
        auto page = store.read(addr.page());
        if (page.empty())
            return std::nullopt;
        return findSection(page, addr.section(), featureDim);
    }

  private:
    const flash::PageStore &store;
    std::uint16_t featureDim;
};

/** Section source over builder metadata (no page bytes needed). */
class LayoutSource : public SectionSource
{
  public:
    LayoutSource(const DirectGraphLayout &layout_,
                 const graph::Graph &graph_)
        : layout(layout_), g(graph_)
    {
    }

    std::optional<SectionData>
    fetch(DgAddress addr) const override
    {
        const SectionPlacement *sp = layout.directory.find(addr);
        if (!sp)
            return std::nullopt;
        const NodeLayout &nl = layout.nodes[sp->node];
        const std::span<const graph::NodeId> adj = g.neighbors(sp->node);
        SectionData s;
        s.type = sp->type;
        s.node = sp->node;
        if (sp->type == SectionType::Primary) {
            s.totalNeighbors = nl.degree;
            s.hasFeature = layout.featureDim > 0;
            s.inPage = nl.inPage;
            s.secondaries = SecondaryList(nl.secondaries);
            s.neighbors = NeighborList(adj.first(nl.inPage), layout.nodes);
        } else {
            std::uint32_t start = nl.inPage;
            for (std::uint32_t j = 0; j < sp->secondaryIdx; ++j)
                start += nl.secondaries[j].count;
            s.totalNeighbors = nl.secondaries[sp->secondaryIdx].count;
            s.neighbors = NeighborList(adj.subspan(start, s.totalNeighbors),
                                       layout.nodes);
        }
        return s;
    }

  private:
    const DirectGraphLayout &layout;
    const graph::Graph &g;
};

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_SOURCE_H
