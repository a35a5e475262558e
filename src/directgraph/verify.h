/**
 * @file
 * Security and integrity verification for DirectGraph (§VI-E).
 *
 * Three checkpoints mirror the paper:
 *  1. Flush time: every destination PPA and every section-embedded
 *     address must lie inside the blocks reserved for this
 *     DirectGraph (prevents customized commands from tampering with
 *     regular storage data).
 *  2. Mini-batch start: the primary-section addresses of the received
 *     target nodes undergo the same range check.
 *  3. Runtime: on-die samplers validate section headers; a missing or
 *     mistyped section aborts the command and returns control to the
 *     firmware (modelled by SectionSource::fetch returning nullopt and
 *     the GnnSampleResult::ok flag).
 */

#ifndef BEACONGNN_DIRECTGRAPH_VERIFY_H
#define BEACONGNN_DIRECTGRAPH_VERIFY_H

#include <span>
#include <string>
#include <unordered_set>

#include "directgraph/codec.h"
#include "directgraph/layout.h"

namespace beacongnn::dg {

/** Range checker over the set of blocks reserved for a DirectGraph. */
class AddressVerifier
{
  public:
    AddressVerifier(std::span<const flash::BlockId> blocks,
                    unsigned pages_per_block)
        : pagesPerBlock(pages_per_block)
    {
        for (auto b : blocks)
            allowed.insert(b);
    }

    /** True if @p ppa lies inside a reserved block. */
    bool
    pageAllowed(flash::Ppa ppa) const
    {
        return allowed.count(ppa / pagesPerBlock) != 0;
    }

    /** True if a DirectGraph address targets a reserved block. */
    bool addressAllowed(DgAddress a) const { return pageAllowed(a.page()); }

    /**
     * Flush-time check: the destination page and every address
     * embedded in the page image must stay inside reserved blocks.
     *
     * @param ppa         Destination physical page.
     * @param image       Page content about to be programmed.
     * @param feature_dim Feature elements (to decode primary bodies).
     * @return true if the page is safe to program.
     */
    bool
    pageImageSafe(flash::Ppa ppa, std::span<const std::uint8_t> image,
                  std::uint16_t feature_dim) const
    {
        if (!pageAllowed(ppa))
            return false;
        for (const SectionData &sec : decodePage(image, feature_dim)) {
            for (std::size_t j = 0; j < sec.secondaries.size(); ++j)
                if (!addressAllowed(sec.secondaries[j].addr))
                    return false;
            for (std::size_t i = 0; i < sec.neighbors.size(); ++i)
                if (!addressAllowed(sec.neighbors[i]))
                    return false;
        }
        return true;
    }

  private:
    std::unordered_set<flash::BlockId> allowed;
    unsigned pagesPerBlock;
};

/**
 * Whole-layout invariant check used by tests: every node resolvable,
 * every embedded address inside the reserved blocks, every section
 * within page bounds and below the per-page section cap.
 *
 * @return Empty string when consistent, else a description of the
 *         first violation.
 */
std::string checkLayoutInvariants(const DirectGraphLayout &layout);

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_VERIFY_H
