#include "directgraph/builder.h"

#include <algorithm>
#include <limits>
#include <string>

#include "sim/log.h"

namespace beacongnn::dg {

namespace {

/** Pre-computed section plan for one node (Algorithm 1, step 1). */
struct NodePlan
{
    std::uint32_t inPage = 0;
    std::vector<std::uint32_t> secondaryCounts;
};

/**
 * Decide how a node's neighbours split between its primary section
 * and secondary sections. Nodes whose full record fits in one page
 * keep everything in the primary; otherwise the primary fills an
 * entire page and the remainder spills into secondaries.
 */
NodePlan
planNode(std::uint32_t degree, std::uint32_t feat_bytes,
         std::uint32_t page_size)
{
    NodePlan plan;
    if (primarySectionBytes(0, feat_bytes, degree) <= page_size) {
        plan.inPage = degree;
        return plan;
    }
    const std::uint32_t sec_cap = (page_size - kHeaderBytes) / kAddrBytes;
    // Fixed-point iteration: more secondaries shrink the primary's
    // in-page capacity (each ref costs 8 B), which may require yet
    // another secondary. Converges in a couple of steps.
    std::uint32_t s = 1;
    std::uint32_t in_page = 0;
    for (;;) {
        std::uint32_t meta = kHeaderBytes + s * kSecondaryRefBytes +
                             feat_bytes;
        in_page = meta >= page_size ? 0 : (page_size - meta) / kAddrBytes;
        in_page = std::min(in_page, degree);
        std::uint32_t spill = degree - in_page;
        std::uint32_t need =
            (spill + sec_cap - 1) / sec_cap;
        if (need <= s)
            break;
        s = need;
    }
    plan.inPage = in_page;
    std::uint32_t spill = degree - in_page;
    while (spill > 0) {
        std::uint32_t c = std::min(spill, sec_cap);
        plan.secondaryCounts.push_back(c);
        spill -= c;
    }
    return plan;
}

/** An open page being filled by the best-fit packer. */
struct OpenPage
{
    flash::Ppa ppa;
    std::uint32_t ordinal;      ///< Page ordinal in the reserved blocks.
    std::uint32_t used = 0;     ///< Aligned high-water mark.
    std::uint32_t sections = 0;
};

/**
 * Best-fit section packer over a bounded pool of open pages, drawing
 * fresh pages sequentially from the reserved block list.
 */
class Packer
{
  public:
    Packer(DirectGraphLayout &layout_,
           std::vector<SectionDirectory::Placed> &placed_,
           std::span<const flash::BlockId> blocks_,
           const flash::FlashConfig &cfg_, const BuilderOptions &opts,
           std::uint64_t &pages_used, std::uint64_t &blocks_touched)
        : layout(layout_), placed(placed_), blocks(blocks_), cfg(cfg_),
          poolLimit(std::max(1u, opts.openPagePool)),
          pagesUsed(pages_used), blocksTouched(blocks_touched)
    {
        // Pages stripe round-robin across a window of reserved blocks
        // so even a scaled-down dataset exercises every channel and
        // die, the way the paper's 100s-of-GB datasets do naturally.
        stripe = opts.stripeWidth != 0
                     ? opts.stripeWidth
                     : std::max<std::uint64_t>(1, cfg.totalDies());
        stripe = std::min<std::uint64_t>(stripe, blocks.size());
        stripe = std::max<std::uint64_t>(1, stripe);
    }

    /**
     * Place a section of @p size unpadded bytes.
     * @return Its DgAddress; records the placement for the directory.
     */
    DgAddress
    place(graph::NodeId node, SectionType type, std::uint32_t size,
          std::uint32_t secondary_idx)
    {
        if (size > cfg.pageSize)
            sim::panic("DirectGraph section larger than a flash page");
        // Best fit: the open page with the least leftover that still
        // accommodates the section.
        int best = -1;
        std::uint32_t best_left = std::numeric_limits<std::uint32_t>::max();
        for (std::size_t i = 0; i < pool.size(); ++i) {
            const auto &p = pool[i];
            if (p.sections >= kMaxSectionsPerPage)
                continue;
            std::uint32_t start = alignSection(p.used);
            if (start + size > cfg.pageSize)
                continue;
            std::uint32_t left = cfg.pageSize - (start + size);
            if (left < best_left) {
                best_left = left;
                best = static_cast<int>(i);
            }
        }
        if (best < 0) {
            if (pool.size() >= poolLimit) {
                // Retire the fullest page to bound the pool.
                std::size_t fullest = 0;
                for (std::size_t i = 1; i < pool.size(); ++i)
                    if (pool[i].used > pool[fullest].used)
                        fullest = i;
                pool.erase(pool.begin() +
                           static_cast<std::ptrdiff_t>(fullest));
            }
            pool.push_back(nextPage());
            best = static_cast<int>(pool.size() - 1);
        }
        OpenPage &p = pool[static_cast<std::size_t>(best)];
        std::uint32_t offset = alignSection(p.used);
        DgAddress addr(p.ppa, p.sections);

        SectionPlacement sp;
        sp.node = node;
        sp.type = type;
        sp.byteOffset = offset;
        sp.byteSize = size;
        sp.secondaryIdx = secondary_idx;
        placed.push_back({p.ordinal, sp});

        p.used = offset + size;
        ++p.sections;
        layout.stats.usedBytes += size;
        return addr;
    }

  private:
    OpenPage
    nextPage()
    {
        std::uint64_t idx = pagesUsed++;
        std::uint64_t per_group = stripe * cfg.pagesPerBlock;
        std::uint64_t group = idx / per_group;
        std::uint64_t within = idx % per_group;
        std::uint64_t block_slot = group * stripe + within % stripe;
        std::uint64_t page_in_block = within / stripe;
        if (block_slot >= blocks.size())
            sim::fatal("DirectGraph build: reserved block list exhausted");
        flash::BlockId b = blocks[block_slot];
        blocksTouched = std::max(blocksTouched, block_slot + 1);
        return OpenPage{
            b * cfg.pagesPerBlock + static_cast<flash::Ppa>(page_in_block),
            static_cast<std::uint32_t>(block_slot * cfg.pagesPerBlock +
                                       page_in_block)};
    }

    DirectGraphLayout &layout;
    std::vector<SectionDirectory::Placed> &placed;
    std::span<const flash::BlockId> blocks;
    const flash::FlashConfig &cfg;
    unsigned poolLimit;
    std::uint64_t &pagesUsed;
    std::uint64_t &blocksTouched;
    std::uint64_t stripe = 1;
    std::vector<OpenPage> pool;
};

} // namespace

std::uint64_t
reservedBlockCount(const graph::Graph &g,
                   const graph::FeatureTable &features,
                   const flash::FlashConfig &cfg)
{
    const std::uint64_t raw =
        g.numEdges() * 4 +
        std::uint64_t{g.numNodes()} * features.bytesPerNode();
    const std::uint64_t block_bytes =
        std::uint64_t{cfg.pagesPerBlock} * cfg.pageSize;
    return std::max<std::uint64_t>((raw * 3) / block_bytes + 16,
                                   cfg.totalDies() + 8);
}

DirectGraphLayout
buildLayout(const graph::Graph &g, const graph::FeatureTable &features,
            const flash::FlashConfig &cfg,
            std::span<const flash::BlockId> blocks,
            const BuilderOptions &opts)
{
    DirectGraphLayout layout;
    layout.featureDim = features.dim();
    layout.pageSize = cfg.pageSize;
    const std::uint32_t feat_bytes = features.bytesPerNode();

    if (kHeaderBytes + feat_bytes > cfg.pageSize)
        sim::fatal("feature vector does not fit in a flash page");

    const graph::NodeId n = g.numNodes();
    layout.nodes.resize(n);

    // ---- Step 1: plan sections per node -------------------------
    std::vector<NodePlan> plans(n);
    std::size_t sections = n;
    for (graph::NodeId v = 0; v < n; ++v) {
        plans[v] = planNode(g.degree(v), feat_bytes, cfg.pageSize);
        layout.nodes[v].degree = g.degree(v);
        layout.nodes[v].inPage = plans[v].inPage;
        sections += plans[v].secondaryCounts.size();
    }

    // ---- Step 1b: map sections to physical pages ----------------
    // Primary and secondary pages are packed as separate streams
    // (the two page types of Fig. 8) drawn from one page sequence.
    std::uint64_t pages_used = 0;
    std::uint64_t blocks_touched = 0;
    std::vector<SectionDirectory::Placed> placed;
    placed.reserve(sections);
    Packer primary_packer(layout, placed, blocks, cfg, opts, pages_used,
                          blocks_touched);
    for (graph::NodeId v = 0; v < n; ++v) {
        const auto &plan = plans[v];
        std::uint32_t size = primarySectionBytes(
            static_cast<std::uint32_t>(plan.secondaryCounts.size()),
            feat_bytes, plan.inPage);
        // A hub's secondary references alone can outgrow its primary
        // section: no layout exists at this page size.
        if (size > cfg.pageSize)
            sim::fatal("DirectGraph build: node " + std::to_string(v) +
                       " needs a " + std::to_string(size) +
                       "-byte primary section for its " +
                       std::to_string(plan.secondaryCounts.size()) +
                       " secondary references, more than the " +
                       std::to_string(cfg.pageSize) +
                       "-byte flash page");
        layout.nodes[v].primary =
            primary_packer.place(v, SectionType::Primary, size, 0);
    }
    layout.stats.primaryPages = pages_used;

    Packer secondary_packer(layout, placed, blocks, cfg, opts, pages_used,
                            blocks_touched);
    for (graph::NodeId v = 0; v < n; ++v) {
        const auto &plan = plans[v];
        if (plan.secondaryCounts.empty())
            continue;
        ++layout.stats.nodesWithSecondaries;
        for (std::uint32_t j = 0; j < plan.secondaryCounts.size(); ++j) {
            std::uint32_t c = plan.secondaryCounts[j];
            DgAddress a = secondary_packer.place(
                v, SectionType::Secondary, secondarySectionBytes(c), j);
            layout.nodes[v].secondaries.push_back({a, c});
            ++layout.stats.secondarySections;
        }
    }
    layout.stats.secondaryPages = pages_used - layout.stats.primaryPages;

    // ---- Accounting (Table IV) -----------------------------------
    layout.blocks.assign(
        blocks.begin(),
        blocks.begin() + static_cast<std::ptrdiff_t>(blocks_touched));
    layout.directory =
        SectionDirectory(layout.blocks, cfg.pagesPerBlock, placed);
    std::uint64_t blocks_used = blocks_touched;
    layout.stats.flashBytes = pages_used * cfg.pageSize;
    layout.stats.blockBytes = blocks_used *
                              std::uint64_t{cfg.pagesPerBlock} *
                              cfg.pageSize;
    layout.stats.rawBytes =
        g.numEdges() * 4 + std::uint64_t{n} * feat_bytes;
    return layout;
}

void
encodePageImage(const DirectGraphLayout &layout, const graph::Graph &g,
                const graph::FeatureTable &features, flash::Ppa ppa,
                std::span<std::uint8_t> buf)
{
    std::fill(buf.begin(), buf.end(), std::uint8_t{0});
    const std::span<const SectionPlacement> sections =
        layout.directory.page(ppa);
    if (sections.empty())
        return;
    std::vector<std::uint8_t> feat(features.bytesPerNode());
    for (const auto &sp : sections) {
        const NodeLayout &nl = layout.nodes[sp.node];
        std::span<std::uint8_t> out =
            buf.subspan(sp.byteOffset, sp.byteSize);
        if (sp.type == SectionType::Primary) {
            features.fill(sp.node, feat);
            std::vector<DgAddress> in_page;
            in_page.reserve(nl.inPage);
            for (std::uint32_t i = 0; i < nl.inPage; ++i)
                in_page.push_back(
                    layout.nodes[g.neighbor(sp.node, i)].primary);
            encodePrimary(out, sp.node, nl.degree, nl.secondaries, feat,
                          in_page);
        } else {
            // Neighbour range covered by this secondary: after the
            // in-page portion and all earlier secondaries.
            std::uint32_t start = nl.inPage;
            for (std::uint32_t j = 0; j < sp.secondaryIdx; ++j)
                start += nl.secondaries[j].count;
            std::uint32_t count = nl.secondaries[sp.secondaryIdx].count;
            std::vector<DgAddress> addrs;
            addrs.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i)
                addrs.push_back(
                    layout.nodes[g.neighbor(sp.node, start + i)].primary);
            encodeSecondary(out, sp.node, addrs);
        }
    }
}

void
materialize(const DirectGraphLayout &layout, const graph::Graph &g,
            const graph::FeatureTable &features, flash::PageStore &store)
{
    std::vector<std::uint8_t> buf(layout.pageSize);
    // Programming order is observable through PageStore program
    // counters; the directory walks the pages in ascending PPA order.
    layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const SectionPlacement>) {
            encodePageImage(layout, g, features, ppa, buf);
            if (!store.program(ppa, buf))
                sim::panic("materialize: page already programmed");
        });
}

} // namespace beacongnn::dg
