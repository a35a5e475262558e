#include "engines/die_sampler.h"

#include "gnn/sampler.h"

namespace beacongnn::engines {

flash::GnnSampleResult
DieSampler::executeImpl(const std::optional<dg::SectionData> &section,
                        const flash::GnnSampleParams &params) const
{
    flash::GnnSampleResult res;
    res.hop = params.hop;
    res.batchId = params.batchId;
    res.parentSlot = params.parentSlot;

    // §VI-E on-die checks: the section must exist and match the
    // command's expectation; otherwise stop immediately and hand
    // control back to the firmware.
    if (!section) {
        res.ok = false;
        return res;
    }
    const dg::SectionData &s = *section;
    bool expect_secondary = params.isSecondary;
    bool is_secondary = s.type == dg::SectionType::Secondary;
    if (s.type == dg::SectionType::Invalid ||
        expect_secondary != is_secondary) {
        res.ok = false;
        return res;
    }
    res.nodeId = s.node;

    auto make_child = [&](dg::DgAddress addr) {
        flash::EmittedCommand c;
        c.params.ppa = addr.page();
        c.params.sectionIndex = static_cast<std::uint8_t>(addr.section());
        c.params.hop = static_cast<std::uint8_t>(params.hop + 1);
        c.params.batchId = params.batchId;
        c.params.retrieveFeature = true;
        c.params.isSecondary = false;
        if (c.params.hop >= gcfg.hops) {
            // Final hop: feature retrieval only.
            c.params.finalHop = true;
            c.params.sampleCount = 0;
        } else {
            c.params.sampleCount = gcfg.fanoutAt(c.params.hop);
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
            return res;

        gnn::PrimaryDraws draws = gnn::drawPrimary(
            gcfg.seed, params.batchId, params.hop, s.node,
            params.sampleCount, s.totalNeighbors, s.inPage,
            s.secondaries);
        for (std::uint32_t pick : draws.inPagePicks)
            make_child(s.neighbors[pick]);
        for (std::size_t j = 0; j < draws.secondaryHits.size(); ++j) {
            std::uint32_t hits = draws.secondaryHits[j];
            if (hits == 0)
                continue;
            // Commands for the same secondary section coalesce into
            // one carrying the hit count (§V-A). The ablation mode
            // issues one single-draw command per hit instead — same
            // picks (drawSecondary is keyed by draw index), more
            // flash reads.
            std::uint32_t per_cmd = opts.coalesceSecondary ? hits : 1;
            for (std::uint32_t first = 0; first < hits;
                 first += per_cmd) {
                const dg::DgAddress at = s.secondaries[j].addr;
                flash::EmittedCommand c;
                c.params.ppa = at.page();
                c.params.sectionIndex =
                    static_cast<std::uint8_t>(at.section());
                c.params.hop = params.hop; // Same-hop continuation.
                c.params.batchId = params.batchId;
                c.params.isSecondary = true;
                c.params.secondaryOrdinal =
                    static_cast<std::uint16_t>(j);
                c.params.firstDraw = static_cast<std::uint8_t>(first);
                c.params.sampleCount =
                    static_cast<std::uint8_t>(per_cmd);
                c.params.retrieveFeature = false;
                c.params.nodeHint = s.node;
                res.follow.push_back(c);
            }
        }
    } else {
        // Secondary section: re-draw within the section only.
        auto picks = gnn::drawSecondary(
            gcfg.seed, params.batchId, params.hop, s.node,
            params.secondaryOrdinal, params.firstDraw,
            params.sampleCount, s.totalNeighbors);
        for (std::uint32_t idx : picks)
            make_child(s.neighbors[idx]);
    }
    return res;
}

} // namespace beacongnn::engines
