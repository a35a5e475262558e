/**
 * @file
 * DirectGraph tests: address packing, section codec round trips, the
 * Algorithm-1 builder's invariants, byte/layout source equivalence,
 * and the §VI-E security verifier.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "directgraph/builder.h"
#include "directgraph/source.h"
#include "directgraph/verify.h"
#include "graph/generator.h"
#include "sim/rng.h"
#include "ssd/ftl.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::dg;

flash::FlashConfig
smallFlash()
{
    flash::FlashConfig cfg;
    cfg.channels = 4;
    cfg.diesPerChannel = 2;
    cfg.planesPerDie = 2;
    cfg.blocksPerPlane = 64;
    cfg.pagesPerBlock = 32;
    cfg.pageSize = 4096;
    return cfg;
}

std::vector<flash::BlockId>
reserve(const flash::FlashConfig &cfg, std::uint64_t n)
{
    ssd::Ftl ftl(cfg);
    return ftl.reserveBlocks(n);
}

TEST(DgAddress, PackUnpack)
{
    DgAddress a(0x0ABCDEF, 9);
    EXPECT_EQ(a.page(), 0x0ABCDEFu);
    EXPECT_EQ(a.section(), 9u);
    EXPECT_EQ(a.raw, (0x0ABCDEFu << 4) | 9u);
    DgAddress b(a.raw);
    EXPECT_EQ(a, b);
    // 28-bit page index (1 TB / 4 KB).
    DgAddress top((1u << 28) - 1, 15);
    EXPECT_EQ(top.page(), (1u << 28) - 1);
    EXPECT_EQ(top.section(), 15u);
}

TEST(Codec, SectionSizeFormulas)
{
    EXPECT_EQ(primarySectionBytes(0, 0, 0), kHeaderBytes);
    EXPECT_EQ(primarySectionBytes(2, 100, 5),
              kHeaderBytes + 16 + 100 + 20);
    EXPECT_EQ(secondarySectionBytes(10), kHeaderBytes + 40);
    EXPECT_EQ(alignSection(1), kSectionAlign);
    EXPECT_EQ(alignSection(64), 64u);
    EXPECT_EQ(alignSection(65), 128u);
}

TEST(Codec, PrimaryRoundTrip)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<SecondaryRef> secs = {{DgAddress(100, 1), 50},
                                      {DgAddress(200, 2), 30}};
    std::vector<std::uint8_t> feat(64);
    for (std::size_t i = 0; i < feat.size(); ++i)
        feat[i] = static_cast<std::uint8_t>(i * 3);
    std::vector<DgAddress> in_page = {DgAddress(7, 0), DgAddress(8, 3),
                                      DgAddress(9, 15)};
    std::uint32_t written =
        encodePrimary(page, 424242, 83, secs, feat, in_page);
    EXPECT_EQ(written, primarySectionBytes(2, 64, 3));

    auto dec = decodeSection(page, 0, 32); // 32 FP16 elems = 64 B.
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->type, SectionType::Primary);
    EXPECT_EQ(dec->node, 424242u);
    EXPECT_EQ(dec->totalNeighbors, 83u);
    EXPECT_TRUE(dec->hasFeature);
    ASSERT_EQ(dec->secondaries.size(), 2u);
    EXPECT_EQ(dec->secondaries[0].addr, DgAddress(100, 1));
    EXPECT_EQ(dec->secondaries[0].count, 50u);
    EXPECT_EQ(dec->secondaries[1].count, 30u);
    EXPECT_EQ(dec->inPage, 3u);
    ASSERT_EQ(dec->neighbors.size(), 3u);
    EXPECT_EQ(dec->neighbors[2], DgAddress(9, 15));
}

TEST(Codec, SecondaryRoundTrip)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<DgAddress> nbrs;
    for (std::uint32_t i = 0; i < 20; ++i)
        nbrs.emplace_back(i * 17, i % 16);
    std::uint32_t written = encodeSecondary(page, 777, nbrs);
    EXPECT_EQ(written, secondarySectionBytes(20));
    auto dec = decodeSection(page, 0, 128);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->type, SectionType::Secondary);
    EXPECT_EQ(dec->node, 777u);
    EXPECT_EQ(dec->totalNeighbors, 20u);
    ASSERT_EQ(dec->neighbors.size(), 20u);
    EXPECT_EQ(dec->neighbors[19], DgAddress(19 * 17, 3));
}

TEST(Codec, MultipleSectionsPerPage)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<DgAddress> n1 = {DgAddress(1, 0)};
    std::vector<DgAddress> n2 = {DgAddress(2, 0), DgAddress(3, 0)};
    encodeSecondary(std::span(page).subspan(0), 10, n1);
    std::uint32_t off = alignSection(secondarySectionBytes(1));
    encodeSecondary(std::span(page).subspan(off), 11, n2);

    auto s0 = findSection(page, 0, 0);
    auto s1 = findSection(page, 1, 0);
    ASSERT_TRUE(s0 && s1);
    EXPECT_EQ(s0->node, 10u);
    EXPECT_EQ(s1->node, 11u);
    EXPECT_EQ(s1->totalNeighbors, 2u);
    EXPECT_FALSE(findSection(page, 2, 0).has_value());
    EXPECT_EQ(decodePage(page, 0).size(), 2u);
}

TEST(Codec, RejectsGarbage)
{
    std::vector<std::uint8_t> page(4096, 0xEE); // Invalid type byte.
    EXPECT_FALSE(decodeSection(page, 0, 10).has_value());
    std::vector<std::uint8_t> erased(4096, 0);
    EXPECT_FALSE(decodeSection(erased, 0, 10).has_value());
    EXPECT_TRUE(decodePage(erased, 10).empty());
}

class BuilderTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BuilderTest, InvariantsHoldForVariousPageSizes)
{
    flash::FlashConfig cfg = smallFlash();
    cfg.pageSize = GetParam();
    graph::GeneratorParams gp;
    gp.nodes = 600;
    gp.avgDegree = 40;
    gp.maxDegree = 3000;
    gp.seed = GetParam();
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(32, 5);

    auto blocks = reserve(cfg, 400);
    ASSERT_FALSE(blocks.empty());
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(checkLayoutInvariants(layout), "");
    EXPECT_EQ(layout.nodes.size(), g.numNodes());
    EXPECT_GT(layout.stats.primaryPages, 0u);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BuilderTest,
                         ::testing::Values(2048u, 4096u, 8192u, 16384u));

TEST(Builder, HighDegreeNodesSpill)
{
    flash::FlashConfig cfg = smallFlash();
    // Node 0 has degree far exceeding one page.
    std::vector<std::vector<graph::NodeId>> adj(50);
    for (graph::NodeId i = 0; i < 4000; ++i)
        adj[0].push_back(1 + (i % 49));
    for (graph::NodeId v = 1; v < 50; ++v)
        adj[v] = {0, static_cast<graph::NodeId>((v + 1) % 50)};
    graph::Graph g(adj);
    graph::FeatureTable feat(64, 1);
    auto blocks = reserve(cfg, 64);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(checkLayoutInvariants(layout), "");
    const NodeLayout &nl = layout.nodes[0];
    EXPECT_GT(nl.secondaries.size(), 0u);
    std::uint32_t covered = nl.inPage;
    for (const auto &s : nl.secondaries)
        covered += s.count;
    EXPECT_EQ(covered, 4000u);
    EXPECT_GT(layout.stats.secondaryPages, 0u);
    EXPECT_EQ(layout.stats.nodesWithSecondaries, 1u);
}

TEST(Builder, CompactionPacksSmallSections)
{
    flash::FlashConfig cfg = smallFlash();
    // 64 low-degree nodes: sections must share pages.
    graph::Graph g = graph::generateRing(64, 4);
    graph::FeatureTable feat(16, 2);
    auto blocks = reserve(cfg, 16);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(checkLayoutInvariants(layout), "");
    // Way fewer pages than nodes.
    EXPECT_LT(layout.stats.primaryPages, 16u);
    // And no page exceeds the 4-bit section cap.
    layout.directory.forEachPage(
        [](flash::Ppa, std::span<const SectionPlacement> sections) {
            EXPECT_LE(sections.size(), kMaxSectionsPerPage);
        });
}

TEST(Builder, MaterializeAndSourcesAgree)
{
    flash::FlashConfig cfg = smallFlash();
    graph::GeneratorParams gp;
    gp.nodes = 400;
    gp.avgDegree = 60;
    gp.maxDegree = 2500;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(32, 5);
    auto blocks = reserve(cfg, 300);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    ASSERT_EQ(checkLayoutInvariants(layout), "");

    flash::PageStore store(cfg);
    materialize(layout, g, feat, store);
    EXPECT_EQ(store.programmedPages(), layout.directory.pageCount());

    PageByteSource bytes(store, feat.dim());
    LayoutSource meta(layout, g);

    for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
        // Primary sections agree between byte and layout sources.
        auto a = bytes.fetch(layout.nodes[v].primary);
        auto b = meta.fetch(layout.nodes[v].primary);
        ASSERT_TRUE(a && b) << "node " << v;
        EXPECT_EQ(a->node, v);
        EXPECT_EQ(a->node, b->node);
        EXPECT_EQ(a->type, b->type);
        EXPECT_EQ(a->totalNeighbors, b->totalNeighbors);
        EXPECT_EQ(a->inPage, b->inPage);
        ASSERT_EQ(a->secondaries.size(), b->secondaries.size());
        for (std::size_t j = 0; j < a->secondaries.size(); ++j) {
            EXPECT_EQ(a->secondaries[j].addr, b->secondaries[j].addr);
            EXPECT_EQ(a->secondaries[j].count, b->secondaries[j].count);
        }
        ASSERT_EQ(a->neighbors.size(), b->neighbors.size());
        for (std::size_t j = 0; j < a->neighbors.size(); ++j)
            EXPECT_EQ(a->neighbors[j], b->neighbors[j]);
        // Secondary sections too.
        for (const auto &r : layout.nodes[v].secondaries) {
            auto sa = bytes.fetch(r.addr);
            auto sb = meta.fetch(r.addr);
            ASSERT_TRUE(sa && sb);
            EXPECT_EQ(sa->node, v);
            EXPECT_EQ(sa->totalNeighbors, sb->totalNeighbors);
            ASSERT_EQ(sa->neighbors.size(), sb->neighbors.size());
            for (std::size_t j = 0; j < sa->neighbors.size(); ++j)
                EXPECT_EQ(sa->neighbors[j], sb->neighbors[j]);
        }
    }
}

TEST(Builder, FeatureBytesSurviveRoundTrip)
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g = graph::generateRing(32, 3);
    graph::FeatureTable feat(24, 9);
    auto blocks = reserve(cfg, 8);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    flash::PageStore store(cfg);
    materialize(layout, g, feat, store);

    // Check the raw feature bytes inside the page image.
    for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
        DgAddress a = layout.nodes[v].primary;
        auto page = store.read(a.page());
        ASSERT_FALSE(page.empty());
        auto sec = findSection(page, a.section(), feat.dim());
        ASSERT_TRUE(sec.has_value());
        const SectionPlacement *sp = layout.directory.find(a);
        ASSERT_NE(sp, nullptr);
        std::uint32_t feat_off =
            sp->byteOffset + kHeaderBytes +
            static_cast<std::uint32_t>(sec->secondaries.size()) *
                kSecondaryRefBytes;
        for (std::uint16_t i = 0; i < feat.dim(); ++i) {
            std::uint16_t expect = feat.raw(v, i);
            std::uint16_t got = static_cast<std::uint16_t>(
                page[feat_off + 2 * i] |
                (page[feat_off + 2 * i + 1] << 8));
            ASSERT_EQ(got, expect) << "node " << v << " elem " << i;
        }
    }
}

TEST(Builder, ExhaustedBlockListIsFatal)
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g = graph::generateRing(2000, 64);
    graph::FeatureTable feat(128, 3);
    std::vector<flash::BlockId> one_block = {0};
    EXPECT_DEATH(
        { buildLayout(g, feat, cfg, one_block); }, "exhausted");
}

TEST(Builder, HubOverflowingItsPrimaryIsFatal)
{
    // At 1 KiB pages a 30000-neighbour hub needs 120 secondary
    // references: 960 bytes that, with the header and the feature,
    // overflow its one-page primary section. The build exits 1 with a
    // message, not an abort.
    flash::FlashConfig cfg = smallFlash();
    cfg.pageSize = 1024;
    std::vector<std::vector<graph::NodeId>> adj(50);
    for (graph::NodeId i = 0; i < 30000; ++i)
        adj[0].push_back(1 + (i % 49));
    for (graph::NodeId v = 1; v < 50; ++v)
        adj[v] = {0};
    graph::Graph g(adj);
    graph::FeatureTable feat(64, 1);
    auto blocks = reserve(cfg, 64);
    EXPECT_EXIT({ buildLayout(g, feat, cfg, blocks); },
                ::testing::ExitedWithCode(1),
                "node 0 needs a 1104-byte primary section for its 120 "
                "secondary references, more than the 1024-byte flash "
                "page");
}

/** A power-law layout with hubs that spill into secondaries. */
DirectGraphLayout
spillingLayout(const flash::FlashConfig &cfg, const graph::Graph &g,
               std::span<const flash::BlockId> blocks)
{
    graph::FeatureTable feat(32, 5);
    return buildLayout(g, feat, cfg, blocks);
}

graph::Graph
spillingGraph()
{
    graph::GeneratorParams gp;
    gp.nodes = 500;
    gp.avgDegree = 50;
    gp.maxDegree = 3000;
    gp.seed = 11;
    return graph::generatePowerLaw(gp);
}

TEST(SectionDirectory, FindsEveryPlacementTheBuilderMade)
{
    const flash::FlashConfig cfg = smallFlash();
    const graph::Graph g = spillingGraph();
    const DirectGraphLayout layout =
        spillingLayout(cfg, g, reserve(cfg, 200));
    std::size_t found = 0;
    for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
        const NodeLayout &nl = layout.nodes[v];
        const SectionPlacement *p = layout.directory.find(nl.primary);
        ASSERT_NE(p, nullptr) << "node " << v;
        EXPECT_EQ(p->node, v);
        EXPECT_EQ(p->type, SectionType::Primary);
        ++found;
        for (std::uint32_t j = 0; j < nl.secondaries.size(); ++j) {
            const SectionPlacement *s =
                layout.directory.find(nl.secondaries[j].addr);
            ASSERT_NE(s, nullptr) << "node " << v << " secondary " << j;
            EXPECT_EQ(s->node, v);
            EXPECT_EQ(s->type, SectionType::Secondary);
            EXPECT_EQ(s->secondaryIdx, j);
            ++found;
        }
    }
    EXPECT_GT(layout.stats.secondarySections, 0u);
    EXPECT_EQ(found, layout.directory.sectionCount());
    EXPECT_EQ(found, g.numNodes() + layout.stats.secondarySections);
}

TEST(SectionDirectory, MissesReturnNull)
{
    const flash::FlashConfig cfg = smallFlash();
    const graph::Graph g = spillingGraph();
    // Every other block, so the layout's block range has holes.
    std::vector<flash::BlockId> blocks;
    for (flash::BlockId b = 0; b < 400; b += 2)
        blocks.push_back(b);
    const DirectGraphLayout layout = spillingLayout(cfg, g, blocks);
    const std::uint32_t ppb = cfg.pagesPerBlock;

    // A section index past its page's count (on a page that is not
    // full, so the index still fits the address's 4 bits).
    flash::Ppa partial = 0;
    std::size_t on_page = 0;
    layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const SectionPlacement> row) {
            if (on_page == 0 && row.size() < kMaxSectionsPerPage) {
                partial = ppa;
                on_page = row.size();
            }
        });
    ASSERT_GT(on_page, 0u);
    EXPECT_NE(layout.directory.find(DgAddress(partial,
                                    static_cast<unsigned>(on_page - 1))),
              nullptr);
    EXPECT_EQ(layout.directory.find(DgAddress(partial,
                                    static_cast<unsigned>(on_page))),
              nullptr);

    // A page the layout never used, inside one of its blocks.
    const flash::BlockId last = layout.blocks.back();
    flash::Ppa unused = 0;
    bool have_unused = false;
    for (std::uint32_t p = 0; p < ppb && !have_unused; ++p) {
        if (layout.directory.page(last * ppb + p).empty()) {
            unused = last * ppb + p;
            have_unused = true;
        }
    }
    ASSERT_TRUE(have_unused);
    EXPECT_EQ(layout.directory.find(DgAddress(unused, 0)), nullptr);

    // A block outside the layout: a hole inside its block range, the
    // block past its last one, and a block of the reserve it never
    // touched.
    EXPECT_EQ(layout.directory.find(DgAddress(1 * ppb, 0)), nullptr);
    const flash::BlockId top =
        *std::max_element(layout.blocks.begin(), layout.blocks.end());
    EXPECT_EQ(layout.directory.find(DgAddress((top + 1) * ppb, 0)), nullptr);
    ASSERT_LT(layout.blocks.size(), blocks.size());
    EXPECT_EQ(layout.directory.find(DgAddress(blocks.back() * ppb, 0)),
              nullptr);

    // A PPA past the device.
    EXPECT_EQ(layout.directory.find(DgAddress(
                  static_cast<flash::Ppa>(cfg.totalPages()) + 3, 0)),
              nullptr);

    // An empty layout finds nothing.
    EXPECT_EQ(SectionDirectory{}.find(layout.nodes[0].primary), nullptr);
}

TEST(SectionDirectory, ShuffledBlocksStillWalkInAscendingPpaOrder)
{
    const flash::FlashConfig cfg = smallFlash();
    const graph::Graph g = spillingGraph();
    std::vector<flash::BlockId> blocks = reserve(cfg, 200);
    sim::Pcg32 rng(0x5EC7, 1);
    for (std::size_t i = blocks.size(); i > 1; --i)
        std::swap(blocks[i - 1],
                  blocks[rng.below(static_cast<std::uint32_t>(i))]);
    const DirectGraphLayout layout = spillingLayout(cfg, g, blocks);
    ASSERT_EQ(checkLayoutInvariants(layout), "");
    ASSERT_FALSE(std::is_sorted(layout.blocks.begin(), layout.blocks.end()));

    std::vector<flash::Ppa> walked;
    std::size_t sections = 0;
    layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const SectionPlacement> row) {
            EXPECT_FALSE(row.empty());
            EXPECT_EQ(row.data(), layout.directory.page(ppa).data());
            walked.push_back(ppa);
            sections += row.size();
        });
    EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
    EXPECT_EQ(std::adjacent_find(walked.begin(), walked.end()),
              walked.end());
    EXPECT_EQ(walked.size(), layout.directory.pageCount());
    EXPECT_EQ(walked.size(),
              layout.stats.primaryPages + layout.stats.secondaryPages);
    EXPECT_EQ(sections, layout.directory.sectionCount());
}

TEST(Verifier, AcceptsOwnPagesRejectsForeign)
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g = graph::generateRing(64, 6);
    graph::FeatureTable feat(16, 2);
    auto blocks = reserve(cfg, 8);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    flash::PageStore store(cfg);
    materialize(layout, g, feat, store);

    AddressVerifier verifier(layout.blocks, cfg.pagesPerBlock);
    layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const SectionPlacement>) {
            EXPECT_TRUE(verifier.pageAllowed(ppa));
            auto page = store.read(ppa);
            EXPECT_TRUE(verifier.pageImageSafe(ppa, page, feat.dim()));
        });
    // A page outside the reserved blocks is rejected.
    flash::Ppa foreign =
        static_cast<flash::Ppa>(cfg.totalPages() - 1);
    EXPECT_FALSE(verifier.pageAllowed(foreign));

    // A page image with an embedded out-of-range address is rejected.
    std::vector<std::uint8_t> evil(cfg.pageSize, 0);
    std::vector<DgAddress> bad = {DgAddress(foreign, 0)};
    encodeSecondary(evil, 1, bad);
    flash::Ppa dest = layout.nodes[0].primary.page();
    EXPECT_FALSE(verifier.pageImageSafe(dest, evil, feat.dim()));
}

TEST(Builder, InflationAccounting)
{
    flash::FlashConfig cfg = smallFlash();
    graph::GeneratorParams gp;
    gp.nodes = 2000;
    gp.avgDegree = 28;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(100, 4);
    auto blocks = reserve(cfg, 700);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(layout.stats.rawBytes,
              g.numEdges() * 4 + 2000ull * 200);
    EXPECT_GE(layout.stats.flashBytes, layout.stats.usedBytes);
    EXPECT_GT(layout.stats.inflatePct(), 0.0);
    EXPECT_LT(layout.stats.inflatePct(), 120.0);
}

} // namespace

namespace {

using namespace beacongnn;
using namespace beacongnn::dg;

/** Keeps readWholeView()'s loads from being optimized away. */
volatile std::uint64_t viewSink = 0;

/**
 * Read every entry of both lists of the view @p s and check their
 * sizes against its header: a view that reached past its section
 * would read outside the page (an ASan report, or an assertion-build
 * abort).
 */
void
readWholeView(const SectionData &s)
{
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < s.secondaries.size(); ++j)
        sum += s.secondaries[j].addr.raw + s.secondaries[j].count;
    for (std::size_t i = 0; i < s.neighbors.size(); ++i)
        sum += s.neighbors[i].raw;
    viewSink = sum;
    if (s.type == SectionType::Primary) {
        EXPECT_EQ(s.neighbors.size(), s.inPage);
    } else {
        EXPECT_EQ(s.neighbors.size(), s.totalNeighbors);
        EXPECT_EQ(s.secondaries.size(), 0u);
    }
}

TEST(Codec, FuzzDecodeNeverCrashes)
{
    // decodeSection / findSection / decodePage must reject arbitrary
    // bytes gracefully — the on-die §VI-E check depends on it — and
    // every view they return must stay inside its page.
    sim::Pcg32 rng(0xF422);
    std::vector<std::uint8_t> page(4096);
    for (int round = 0; round < 300; ++round) {
        for (auto &b : page)
            b = static_cast<std::uint8_t>(rng.next());
        // Bias some rounds toward plausible type bytes so the deeper
        // decode paths get fuzzed too.
        if (round % 3 == 0)
            page[0] = static_cast<std::uint8_t>(1 + round % 2);
        auto s0 = decodeSection(page, 0, 64);
        if (s0) {
            EXPECT_LE(s0->neighbors.size(), 4096u / 4);
            readWholeView(*s0);
        }
        for (unsigned idx = 0; idx < kMaxSectionsPerPage; idx += 5)
            if (auto s = findSection(page, idx, 64))
                readWholeView(*s);
        auto all = decodePage(page, 64);
        EXPECT_LE(all.size(), kMaxSectionsPerPage);
        for (const SectionData &s : all)
            readWholeView(s);
    }

    // A secondary section whose neighbour count is corrupted to
    // 0x40000002: in 32-bit arithmetic 16 + count * 4 wraps to its
    // true 24-byte size, and the decode loop would then read about 1G
    // addresses past the page.
    std::fill(page.begin(), page.end(), std::uint8_t{0});
    const std::vector<DgAddress> two = {DgAddress(1, 0), DgAddress(2, 1)};
    ASSERT_EQ(encodeSecondary(page, 7, two), 24u);
    ASSERT_TRUE(decodeSection(page, 0, 64).has_value());
    page[8] = 0x02;
    page[9] = 0x00;
    page[10] = 0x00;
    page[11] = 0x40;
    EXPECT_FALSE(decodeSection(page, 0, 64).has_value());
    EXPECT_FALSE(findSection(page, 0, 64).has_value());
}

TEST(Codec, FuzzTruncatedSections)
{
    // Valid sections truncated at every boundary must decode to
    // nullopt, never read out of bounds.
    std::vector<std::uint8_t> full(4096, 0);
    std::vector<SecondaryRef> secs = {{DgAddress(3, 1), 9}};
    std::vector<std::uint8_t> feat(32, 5);
    std::vector<DgAddress> nbrs = {DgAddress(1, 0), DgAddress(2, 1)};
    std::uint32_t size = encodePrimary(full, 7, 11, secs, feat, nbrs);
    for (std::uint32_t cut = 0; cut < size; ++cut) {
        std::span<const std::uint8_t> prefix(full.data(), cut);
        auto dec = decodeSection(prefix, 0, 16);
        EXPECT_FALSE(dec.has_value()) << "cut=" << cut;
    }
}

} // namespace
