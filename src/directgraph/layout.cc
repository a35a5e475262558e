#include "directgraph/layout.h"

#include <algorithm>

namespace beacongnn::dg {

SectionDirectory::SectionDirectory(std::span<const flash::BlockId> blocks,
                                   std::uint32_t pages_per_block,
                                   std::span<const Placed> placed)
    : pagesPerBlock(pages_per_block)
{
    if (blocks.empty() || pages_per_block == 0)
        return;
    const auto [lo, hi] = std::minmax_element(blocks.begin(), blocks.end());
    firstBlock = *lo;
    blockSlot.assign(std::size_t{*hi - *lo} + 1, kNoSlot);
    for (std::size_t slot = 0; slot < blocks.size(); ++slot)
        blockSlot[blocks[slot] - firstBlock] =
            static_cast<std::uint32_t>(slot);

    // Counting sort by page ordinal, stable, so each row keeps the
    // packer's section order: count into rowStart[o + 1], prefix-sum,
    // scatter with rowStart[o] as the cursor, then shift back.
    const std::size_t rows = blocks.size() * pages_per_block;
    rowStart.assign(rows + 1, 0);
    for (const Placed &p : placed)
        ++rowStart[p.ordinal + 1];
    for (std::size_t r = 0; r < rows; ++r) {
        if (rowStart[r + 1] != 0)
            ++usedPages;
        rowStart[r + 1] += rowStart[r];
    }
    sections.resize(placed.size());
    for (const Placed &p : placed)
        sections[rowStart[p.ordinal]++] = p.at;
    std::copy_backward(rowStart.begin(), rowStart.end() - 1, rowStart.end());
    rowStart[0] = 0;
}

} // namespace beacongnn::dg
