/**
 * @file
 * DirectGraph layout structures: the logical description of where
 * every node's primary and secondary sections live on flash, plus the
 * section directory needed to resolve (page, section) back to a node.
 * The layout is the builder's output; it can be *materialized* into
 * real page bytes (tests, small graphs) or used directly as a
 * metadata-only section source (large timing runs) — both paths are
 * checked for equivalence in the test suite.
 *
 * The directory is dense: a page's ordinal among the reserved blocks'
 * pages (its block's slot in the reserved list times pagesPerBlock,
 * plus its page in the block) selects a CSR row of placements in
 * section-index order. Resolving an address is three array reads and
 * no hash probe; the engine does it on every fetch, and an array does
 * it again to route every primary child.
 */

#ifndef BEACONGNN_DIRECTGRAPH_LAYOUT_H
#define BEACONGNN_DIRECTGRAPH_LAYOUT_H

#include <cstdint>
#include <span>
#include <vector>

#include "directgraph/address.h"
#include "graph/graph.h"

namespace beacongnn::dg {

/** Section type tag (first header byte on flash). */
enum class SectionType : std::uint8_t
{
    Invalid = 0,   ///< Erased / end-of-page marker.
    Primary = 1,
    Secondary = 2,
};

/** Reference from a primary section to one of its secondaries. */
struct SecondaryRef
{
    DgAddress addr;      ///< Where the secondary section lives.
    std::uint32_t count; ///< Neighbours stored in that section.
};

/** Layout of one node's data across sections. */
struct NodeLayout
{
    DgAddress primary;      ///< Address of the primary section.
    std::uint32_t degree = 0;
    std::uint32_t inPage = 0; ///< Neighbours stored inside the primary.
    std::vector<SecondaryRef> secondaries;
};

/** One section's placement inside a page. */
struct SectionPlacement
{
    graph::NodeId node = 0;
    SectionType type = SectionType::Invalid;
    std::uint32_t byteOffset = 0;
    std::uint32_t byteSize = 0;   ///< Unpadded size.
    /** For secondaries: index of this secondary in the node's list. */
    std::uint32_t secondaryIdx = 0;
};

/**
 * Every section placement of a layout, in a CSR table indexed by the
 * page's ordinal among the reserved blocks' pages. The builder's
 * packer records each placement as it places it; the constructor
 * groups them by page in one counting pass.
 */
class SectionDirectory
{
  public:
    /** One placement, as the packer made it. Placements of one page
     *  arrive in section-index order. */
    struct Placed
    {
        /** Page ordinal: block slot * pagesPerBlock + page in block. */
        std::uint32_t ordinal = 0;
        SectionPlacement at;
    };

    SectionDirectory() = default;

    /**
     * @param blocks          The layout's blocks, in slot order.
     * @param pages_per_block Flash pages per block.
     * @param placed          Every placement (ordinals below
     *                        blocks.size() * pages_per_block).
     */
    SectionDirectory(std::span<const flash::BlockId> blocks,
                     std::uint32_t pages_per_block,
                     std::span<const Placed> placed);

    /** The placement at @p a; nullptr for a section index past its
     *  page's count, a page without sections, a block outside the
     *  layout or a page past the device. */
    const SectionPlacement *
    find(DgAddress a) const
    {
        const std::span<const SectionPlacement> row = page(a.page());
        return a.section() < row.size() ? &row[a.section()] : nullptr;
    }

    /** The placements on page @p ppa in section order (empty if the
     *  layout puts none there). */
    std::span<const SectionPlacement>
    page(flash::Ppa ppa) const
    {
        if (blockSlot.empty())
            return {};
        const flash::BlockId block = ppa / pagesPerBlock;
        if (block < firstBlock || block - firstBlock >= blockSlot.size())
            return {};
        const std::uint32_t slot = blockSlot[block - firstBlock];
        if (slot == kNoSlot)
            return {};
        const std::size_t row =
            std::size_t{slot} * pagesPerBlock + ppa % pagesPerBlock;
        return std::span<const SectionPlacement>(sections)
            .subspan(rowStart[row], rowStart[row + 1] - rowStart[row]);
    }

    /** Pages holding at least one section. */
    std::size_t pageCount() const { return usedPages; }

    /** Sections placed, over all pages. */
    std::size_t sectionCount() const { return sections.size(); }

    /**
     * Call @p fn(ppa, placements) for every page holding a section, in
     * ascending PPA order — whatever order the reserved block list
     * had. Programming order is observable (PageStore counters, flush
     * timing), so every page walk goes through here.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (std::size_t i = 0; i < blockSlot.size(); ++i) {
            if (blockSlot[i] == kNoSlot)
                continue;
            const auto block = static_cast<flash::BlockId>(firstBlock + i);
            for (std::uint32_t p = 0; p < pagesPerBlock; ++p) {
                const flash::Ppa ppa = block * pagesPerBlock + p;
                const std::span<const SectionPlacement> row = page(ppa);
                if (!row.empty())
                    fn(ppa, row);
            }
        }
    }

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    std::uint32_t pagesPerBlock = 0;
    /** Lowest block of the layout; blockSlot starts there. */
    flash::BlockId firstBlock = 0;
    /** Slot of block firstBlock + i in the layout's list, or kNoSlot. */
    std::vector<std::uint32_t> blockSlot;
    /** CSR row starts, one per page ordinal plus the end. */
    std::vector<std::uint32_t> rowStart;
    std::vector<SectionPlacement> sections;
    std::size_t usedPages = 0;
};

/** Aggregate construction statistics (Table IV). */
struct BuildStats
{
    std::uint64_t rawBytes = 0;       ///< CSR + feature-table volume.
    std::uint64_t primaryPages = 0;
    std::uint64_t secondaryPages = 0;
    std::uint64_t usedBytes = 0;      ///< Sum of unpadded section bytes.
    std::uint64_t flashBytes = 0;     ///< Pages * pageSize actually used.
    std::uint64_t blockBytes = 0;     ///< Whole allocated blocks.
    std::uint64_t nodesWithSecondaries = 0;
    std::uint64_t secondarySections = 0;

    /** Table IV inflation: extra flash over raw data, page-granular. */
    double
    inflatePct() const
    {
        return rawBytes == 0
                   ? 0.0
                   : 100.0 *
                         (static_cast<double>(flashBytes) -
                          static_cast<double>(rawBytes)) /
                         static_cast<double>(rawBytes);
    }
};

/** The complete DirectGraph layout of a dataset. */
struct DirectGraphLayout
{
    std::vector<NodeLayout> nodes;  ///< Indexed by NodeId.
    /** Where every section sits (the builder's packer fills it). */
    SectionDirectory directory;
    std::vector<flash::BlockId> blocks; ///< Reserved blocks consumed.
    std::uint16_t featureDim = 0;
    std::uint32_t pageSize = 0;
    BuildStats stats;

    /** Primary-section address of @p v (host-provided for targets). */
    DgAddress primaryOf(graph::NodeId v) const { return nodes[v].primary; }
};

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_LAYOUT_H
