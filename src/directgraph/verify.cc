#include "directgraph/verify.h"

#include <string>

namespace beacongnn::dg {

std::string
checkLayoutInvariants(const DirectGraphLayout &layout)
{
    for (std::size_t v = 0; v < layout.nodes.size(); ++v) {
        const NodeLayout &nl = layout.nodes[v];
        const SectionPlacement *p = layout.directory.find(nl.primary);
        if (!p)
            return "node " + std::to_string(v) +
                   ": primary address unresolvable";
        if (p->type != SectionType::Primary)
            return "node " + std::to_string(v) +
                   ": primary address resolves to non-primary section";
        if (p->node != v)
            return "node " + std::to_string(v) +
                   ": primary section owned by node " +
                   std::to_string(p->node);
        std::uint32_t covered = nl.inPage;
        for (const auto &r : nl.secondaries) {
            const SectionPlacement *s = layout.directory.find(r.addr);
            if (!s || s->type != SectionType::Secondary || s->node != v)
                return "node " + std::to_string(v) +
                       ": bad secondary reference";
            covered += r.count;
        }
        if (covered != nl.degree)
            return "node " + std::to_string(v) +
                   ": sections cover " + std::to_string(covered) +
                   " of " + std::to_string(nl.degree) + " neighbours";
    }

    // Ascending-PPA walk, so the *first* violation reported is the
    // same on every build.
    std::string bad;
    layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const SectionPlacement> sections) {
            const char *why = nullptr;
            std::uint32_t prev_end = 0;
            if (sections.size() > kMaxSectionsPerPage)
                why = "too many sections";
            for (std::size_t i = 0; !why && i < sections.size(); ++i) {
                const SectionPlacement &sp = sections[i];
                if (sp.byteOffset % kSectionAlign != 0)
                    why = "unaligned section";
                else if (sp.byteOffset < prev_end)
                    why = "overlapping sections";
                else if (sp.byteOffset + sp.byteSize > layout.pageSize)
                    why = "section exceeds page";
                prev_end = sp.byteOffset + sp.byteSize;
            }
            if (why && bad.empty())
                bad = "page " + std::to_string(ppa) + ": " + why;
        });
    return bad;
}

} // namespace beacongnn::dg
