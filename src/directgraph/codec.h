/**
 * @file
 * On-flash byte format of DirectGraph sections (§IV-A, Fig. 8).
 *
 * Section binary layout (little endian):
 *
 *   offset  size  field
 *   0       1     type (1 = primary, 2 = secondary, 0 = end of page)
 *   1       1     flags (bit 0: feature vector present)
 *   2       2     sectionBytes (total unpadded size of this section)
 *   4       4     nodeId
 *   8       4     totalNeighbors (primary: full degree;
 *                                  secondary: count in this section)
 *   12      2     secondaryCount (primary only)
 *   14      2     reserved
 *   -- 16-byte header --
 *   primary body:
 *     secondaryCount x { u32 DgAddress, u32 count }   (8 B each)
 *     featureBytes of FP16 feature data (if flag set)
 *     inPage x u32 neighbour primary DgAddress        (4 B each)
 *   secondary body:
 *     totalNeighbors x u32 neighbour primary DgAddress
 *
 * Sections start at 64-byte aligned offsets within a page (ONFI
 * column-address granularity); at most 16 sections per page (4-bit
 * section index).
 *
 * Decoding yields a SectionData *view*: the header fields plus two
 * lists that index the section's bytes in place, so decoding a section
 * copies and allocates nothing and a sampler reads only the entries it
 * draws. A view is valid while the page bytes it was decoded from are
 * unchanged (the same lists can also view builder metadata; see
 * directgraph/source.h).
 */

#ifndef BEACONGNN_DIRECTGRAPH_CODEC_H
#define BEACONGNN_DIRECTGRAPH_CODEC_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "directgraph/layout.h"

namespace beacongnn::dg {

/** Format constants. */
inline constexpr std::uint32_t kHeaderBytes = 16;
inline constexpr std::uint32_t kSecondaryRefBytes = 8;
inline constexpr std::uint32_t kAddrBytes = 4;
inline constexpr std::uint32_t kSectionAlign = 64;

/** Round @p bytes up to the section alignment. */
constexpr std::uint32_t
alignSection(std::uint32_t bytes)
{
    return (bytes + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/** Unpadded size of a primary section. */
constexpr std::uint32_t
primarySectionBytes(std::uint32_t secondary_count, std::uint32_t feat_bytes,
                    std::uint32_t in_page_neighbors)
{
    return kHeaderBytes + secondary_count * kSecondaryRefBytes + feat_bytes +
           in_page_neighbors * kAddrBytes;
}

/** Unpadded size of a secondary section holding @p count neighbours. */
constexpr std::uint32_t
secondarySectionBytes(std::uint32_t count)
{
    return kHeaderBytes + count * kAddrBytes;
}

/** Little-endian u32 at byte @p off of @p bytes (a span index, so
 *  an assertion build bounds-checks it). */
inline std::uint32_t
loadLe32(std::span<const std::uint8_t> bytes, std::size_t off)
{
    return static_cast<std::uint32_t>(bytes[off]) |
           (static_cast<std::uint32_t>(bytes[off + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes[off + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes[off + 3]) << 24);
}

/**
 * A section's neighbour addresses, viewed in place: either the
 * section's packed 4-byte addresses, or a node's CSR slice whose
 * entries resolve to their primary address through the layout's node
 * table on access. Each span has the list's exact extent, so an
 * assertion build bounds-checks every index; the unused form's spans
 * are empty.
 */
class NeighborList
{
  public:
    NeighborList() = default;

    /** Over @p packed: size() / kAddrBytes little-endian addresses. */
    explicit NeighborList(std::span<const std::uint8_t> packed)
        : bytes(packed)
    {
    }

    /** Over the CSR slice @p ids, resolved through @p nodes. */
    NeighborList(std::span<const graph::NodeId> ids_,
                 std::span<const NodeLayout> nodes_)
        : ids(ids_), nodes(nodes_)
    {
    }

    std::size_t
    size() const
    {
        return bytes.size() / kAddrBytes + ids.size();
    }

    DgAddress
    operator[](std::size_t i) const
    {
        if (!ids.empty())
            return nodes[ids[i]].primary;
        return DgAddress(loadLe32(bytes, i * kAddrBytes));
    }

  private:
    std::span<const std::uint8_t> bytes;
    std::span<const graph::NodeId> ids;
    std::span<const NodeLayout> nodes;
};

/**
 * A primary section's secondary references, viewed in place: either
 * the section's packed 8-byte refs or a node's
 * NodeLayout::secondaries, each span of the list's exact extent (the
 * unused one empty).
 */
class SecondaryList
{
  public:
    SecondaryList() = default;

    /** Over @p packed: size() / kSecondaryRefBytes refs. */
    explicit SecondaryList(std::span<const std::uint8_t> packed)
        : bytes(packed)
    {
    }

    /** Over a node's layout metadata. */
    explicit SecondaryList(std::span<const SecondaryRef> refs_)
        : refs(refs_)
    {
    }

    std::size_t
    size() const
    {
        return bytes.size() / kSecondaryRefBytes + refs.size();
    }

    SecondaryRef
    operator[](std::size_t j) const
    {
        if (!refs.empty())
            return refs[j];
        const std::size_t off = j * kSecondaryRefBytes;
        return {DgAddress(loadLe32(bytes, off)), loadLe32(bytes, off + 4)};
    }

  private:
    std::span<const std::uint8_t> bytes;
    std::span<const SecondaryRef> refs;
};

/**
 * A decoded section (both byte and layout sources produce this): the
 * header fields and two in-place lists. It owns nothing; it is valid
 * while the bytes, or the layout and graph, behind it are unchanged.
 */
struct SectionData
{
    SectionType type = SectionType::Invalid;
    graph::NodeId node = 0;
    std::uint32_t totalNeighbors = 0; ///< See header doc.
    bool hasFeature = false;
    std::uint32_t inPage = 0;         ///< Primary only.
    SecondaryList secondaries;        ///< Primary only.
    /** Stored neighbour addresses (in-page portion for primaries). */
    NeighborList neighbors;
};

// A view stays a view: an owning member would bring back the per-fetch
// copy and allocation.
static_assert(std::is_trivially_copyable_v<SectionData>);

/**
 * Encode a primary section into @p out (must hold the full size).
 *
 * @param node        Owning node.
 * @param degree      Full neighbour count of the node.
 * @param secondaries Secondary refs (addr + count).
 * @param feature     FP16 feature bytes (may be empty).
 * @param in_page     Addresses of the neighbours stored here.
 * @return Bytes written.
 */
std::uint32_t encodePrimary(std::span<std::uint8_t> out,
                            graph::NodeId node, std::uint32_t degree,
                            std::span<const SecondaryRef> secondaries,
                            std::span<const std::uint8_t> feature,
                            std::span<const DgAddress> in_page);

/** Encode a secondary section into @p out. @return Bytes written. */
std::uint32_t encodeSecondary(std::span<std::uint8_t> out,
                              graph::NodeId node,
                              std::span<const DgAddress> neighbors);

/**
 * Decode the section at byte @p offset of a page image.
 *
 * @param page         Full page bytes.
 * @param offset       Aligned section start.
 * @param feature_dim  Feature elements (from the GNN config registers;
 *                     needed to split a primary body into feature and
 *                     neighbour regions).
 * @return A view into @p page, or nullopt if the bytes are not a
 *         valid section (type tag 0/unknown, size out of range, counts
 *         that disagree, an empty secondary) — the condition on which
 *         an on-die sampler aborts (§VI-E).
 */
std::optional<SectionData> decodeSection(
    std::span<const std::uint8_t> page, std::uint32_t offset,
    std::uint16_t feature_dim);

/**
 * Walk a page image and decode the section with index @p section_idx
 * (sections are stored back-to-back at aligned offsets — this is the
 * operation the die sampler's section iterator performs).
 */
std::optional<SectionData> findSection(std::span<const std::uint8_t> page,
                                       unsigned section_idx,
                                       std::uint16_t feature_dim);

/** Decode every section in a page image (scrubbing, verification);
 *  the views point into @p page. */
std::vector<SectionData> decodePage(std::span<const std::uint8_t> page,
                                    std::uint16_t feature_dim);

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_CODEC_H
