#include "engines/die_sampler.h"

#include "gnn/sampler.h"

namespace beacongnn::engines {

void
DieSampler::executeImpl(const std::optional<dg::SectionData> &section,
                        const flash::GnnSampleParams &params,
                        flash::GnnSampleResult &res) const
{
    // §VI-E on-die checks: the section must exist, be of the type the
    // command expects and belong to the node it expects (when it
    // carries one); otherwise stop immediately and hand control back
    // to the firmware.
    if (!section) {
        res.ok = false;
        return;
    }
    const dg::SectionData &s = *section;
    bool expect_secondary = params.isSecondary;
    bool is_secondary = s.type == dg::SectionType::Secondary;
    if (s.type == dg::SectionType::Invalid ||
        expect_secondary != is_secondary ||
        (params.nodeHint != flash::kNoNodeHint &&
         params.nodeHint != s.node)) {
        res.ok = false;
        return;
    }
    res.nodeId = s.node;

    auto make_child = [&](dg::DgAddress addr) {
        flash::GnnSampleParams c;
        c.ppa = addr.page();
        c.sectionIndex = static_cast<std::uint8_t>(addr.section());
        c.hop = static_cast<std::uint8_t>(params.hop + 1);
        c.batchId = params.batchId;
        c.retrieveFeature = true;
        c.isSecondary = false;
        if (c.hop >= gcfg.hops) {
            // Final hop: feature retrieval only.
            c.finalHop = true;
            c.sampleCount = 0;
        } else {
            c.sampleCount = gcfg.fanoutAt(c.hop);
        }
        // Attention models ship a per-edge coefficient beside each
        // next-hop sample (computed by the sampler's vector unit).
        res.edgeCoeffBytes += gcfg.edgeCoeffBytes;
        res.follow.push_back(c);
    };

    if (!params.isSecondary) {
        // Primary section: the vector retriever copies the feature
        // from the cache register to the data register.
        if (params.retrieveFeature && s.hasFeature) {
            res.featureIncluded = true;
            res.featureBytes = gcfg.featureBytes();
        }
        if (params.finalHop || params.sampleCount == 0)
            return;

        const gnn::PrimaryDraws draws = gnn::drawPrimary(
            gcfg.seed, params.batchId, params.hop, s.node,
            params.sampleCount, s.totalNeighbors, s.inPage,
            s.secondaries);
        for (std::uint32_t pick : draws.inPage)
            make_child(s.neighbors[pick]);
        draws.forEachSecondaryHit([&](std::uint32_t j, std::uint8_t hits) {
            // Commands for the same secondary section coalesce into
            // one carrying the hit count (§V-A). The ablation mode
            // issues one single-draw command per hit instead — same
            // picks (drawSecondary is keyed by draw index), more
            // flash reads.
            const std::uint8_t per_cmd = opts.coalesceSecondary ? hits : 1;
            const dg::DgAddress at = s.secondaries[j].addr;
            for (unsigned first = 0; first < hits; first += per_cmd) {
                flash::GnnSampleParams c;
                c.ppa = at.page();
                c.sectionIndex = static_cast<std::uint8_t>(at.section());
                c.hop = params.hop; // Same-hop continuation.
                c.batchId = params.batchId;
                c.isSecondary = true;
                c.secondaryOrdinal = static_cast<std::uint16_t>(j);
                c.firstDraw = static_cast<std::uint8_t>(first);
                c.sampleCount = per_cmd;
                c.retrieveFeature = false;
                c.nodeHint = s.node;
                res.follow.push_back(c);
            }
        });
    } else {
        // Secondary section: re-draw within the section only.
        const gnn::Draws picks = gnn::drawSecondary(
            gcfg.seed, params.batchId, params.hop, s.node,
            params.secondaryOrdinal, params.firstDraw,
            params.sampleCount, s.totalNeighbors);
        for (std::uint32_t idx : picks)
            make_child(s.neighbors[idx]);
    }
}

} // namespace beacongnn::engines
