/**
 * @file
 * Tests for the NDP engines: the die-level sampler's functional
 * equivalence with the golden layout sampler, §VI-E abort behaviour,
 * secondary-command coalescing, and the GnnEngine's end-to-end
 * subgraph construction in both streaming and barrier modes.
 */

#include <gtest/gtest.h>

#include <map>

#include "engines/die_sampler.h"
#include "engines/gnn_engine.h"
#include "graph/generator.h"
#include "platforms/device_context.h"
#include "platforms/runner.h"
#include "sim/rng.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::engines;

struct Rig
{
    ssd::SystemConfig cfg;
    graph::Graph g;
    graph::FeatureTable feat{16, 2};
    dg::DirectGraphLayout layout;
    std::unique_ptr<flash::PageStore> store;
    std::unique_ptr<dg::PageByteSource> bytes;
    std::unique_ptr<dg::LayoutSource> meta;
    gnn::ModelConfig model;

    explicit Rig(bool with_hub = true)
    {
        cfg.flash.channels = 4;
        cfg.flash.diesPerChannel = 2;
        cfg.flash.blocksPerPlane = 128;
        cfg.flash.pagesPerBlock = 32;

        if (with_hub) {
            // Hub node 0 spills into secondaries; the rest are small.
            std::vector<std::vector<graph::NodeId>> adj(128);
            for (graph::NodeId i = 0; i < 6000; ++i)
                adj[0].push_back(1 + (i % 127));
            for (graph::NodeId v = 1; v < 128; ++v)
                for (graph::NodeId k = 0; k < 6; ++k)
                    adj[v].push_back((v * 7 + k * 13) % 128);
            g = graph::Graph(adj);
        } else {
            g = graph::generateRing(128, 6);
        }
        ssd::Ftl ftl(cfg.flash);
        layout = dg::buildLayout(g, feat, cfg.flash,
                                 ftl.reserveBlocks(128));
        store = std::make_unique<flash::PageStore>(cfg.flash);
        dg::materialize(layout, g, feat, *store);
        bytes = std::make_unique<dg::PageByteSource>(*store, feat.dim());
        meta = std::make_unique<dg::LayoutSource>(layout, g);

        model.hops = 3;
        model.fanout = 3;
        model.featureDim = feat.dim();
        model.hiddenDim = 8;
        model.seed = 77;
    }

    flash::GnnGlobalConfig
    gnnCfg() const
    {
        return engines::gnnGlobalConfig(model);
    }
};

/** Run one command on @p s into a fresh result frame. */
flash::GnnSampleResult
sampleOnce(const DieSampler &s, const std::optional<dg::SectionData> &section,
           const flash::GnnSampleParams &p)
{
    flash::GnnSampleResult r;
    s.execute(section, p, r);
    return r;
}

TEST(DieSampler, AbortsOnMissingSection)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    flash::GnnSampleParams p;
    p.ppa = 12345; // Never programmed.
    flash::GnnSampleResult r = sampleOnce(s, std::nullopt, p);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.follow.empty());
}

TEST(DieSampler, AbortsOnTypeMismatch)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    // Expect secondary, fetch a primary.
    flash::GnnSampleParams p;
    dg::DgAddress a = rig.layout.nodes[5].primary;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.isSecondary = true;
    p.sampleCount = 2;
    auto sec = rig.bytes->fetch(a);
    ASSERT_TRUE(sec.has_value());
    flash::GnnSampleResult r = sampleOnce(s, sec, p);
    EXPECT_FALSE(r.ok);
}

/** Overwrite the little-endian word at byte @p off of page @p ppa (the
 *  store is written only through bit flips once programmed). */
void
poke32(flash::PageStore &store, flash::Ppa ppa, std::uint32_t off,
       std::uint32_t value)
{
    auto page = store.read(ppa);
    std::uint32_t diff = value;
    for (unsigned i = 0; i < 4; ++i)
        diff ^= std::uint32_t{page[off + i]} << (8 * i);
    for (unsigned bit = 0; bit < 32; ++bit)
        if ((diff >> bit) & 1u)
            store.corruptBit(ppa, off + bit / 8, bit % 8);
}

TEST(DieSampler, AbortsOnNeighbourCountMismatch)
{
    // A primary whose neighbour count disagrees with its sections (in
    // page + the secondary counts) would let draws land on indices no
    // section covers: the decoder rejects it, so the command aborts.
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    const dg::NodeLayout &hub = rig.layout.nodes[0];
    ASSERT_FALSE(hub.secondaries.empty());
    const dg::DgAddress a = hub.primary;
    const dg::SectionPlacement *sp = rig.layout.directory.find(a);
    ASSERT_NE(sp, nullptr);
    const std::uint32_t count_field = sp->byteOffset + 8;
    // A primary on another page stays untouched.
    graph::NodeId other = 1;
    while (rig.layout.nodes[other].primary.page() == a.page())
        ++other;
    const dg::DgAddress b = rig.layout.nodes[other].primary;
    flash::GnnSampleParams p;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.sampleCount = 3;
    p.retrieveFeature = true;
    auto decodes = [&](dg::DgAddress at) {
        return dg::decodeSection(rig.store->read(at.page()),
                                 rig.layout.directory.find(at)->byteOffset,
                                 rig.feat.dim())
            .has_value();
    };

    for (std::uint32_t bad : {hub.degree + 1, 0xFFFFFFFFu}) {
        poke32(*rig.store, a.page(), count_field, bad);
        EXPECT_FALSE(decodes(a)) << bad;
        EXPECT_FALSE(sampleOnce(s, rig.bytes->fetch(a), p).ok) << bad;
        EXPECT_TRUE(decodes(b)) << bad;
        poke32(*rig.store, a.page(), count_field, hub.degree);
    }
    EXPECT_TRUE(decodes(a));
    EXPECT_TRUE(sampleOnce(s, rig.bytes->fetch(a), p).ok);
}

TEST(DieSampler, AbortsOnEmptySecondary)
{
    // A secondary section with no neighbours matches its 16-byte size,
    // but a secondary command against it would draw from an empty
    // list: the decoder rejects it, so the command aborts (§VI-E).
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    std::vector<std::uint8_t> page(rig.cfg.flash.pageSize, 0);
    ASSERT_EQ(dg::encodeSecondary(page, 7, {}), dg::kHeaderBytes);
    EXPECT_FALSE(dg::decodeSection(page, 0, rig.feat.dim()).has_value());
    flash::GnnSampleParams p;
    p.isSecondary = true;
    p.sampleCount = 2;
    flash::GnnSampleResult r =
        sampleOnce(s, dg::decodeSection(page, 0, rig.feat.dim()), p);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.follow.empty());
}

TEST(DieSampler, MutatedPagesNeverCrash)
{
    // Mutation fuzzing through the in-place decoder: each round flips
    // one random bit of a copy of a random materialized page, then
    // runs every section index of the copy through PageByteSource and
    // the die sampler as a primary and as a secondary command. A
    // corrupt section must abort or sample within its fanout, and its
    // view must never read past the page (ASan, assertion builds).
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    std::vector<flash::Ppa> pages;
    rig.layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const dg::SectionPlacement>) {
            pages.push_back(ppa);
        });
    const std::uint32_t page_bits = rig.cfg.flash.pageSize * 8;
    sim::Pcg32 rng(0xB17F11);
    std::uint64_t ok = 0, aborted = 0;
    for (int round = 0; round < 6000; ++round) {
        const flash::Ppa ppa =
            pages[rng.below(static_cast<std::uint32_t>(pages.size()))];
        // Half the rounds hit the first 64 bytes of a section: its
        // header and first refs or addresses.
        std::uint32_t bit = rng.below(page_bits);
        if (round % 2 == 0) {
            const auto secs = rig.layout.directory.page(ppa);
            const auto &sp =
                secs[rng.below(static_cast<std::uint32_t>(secs.size()))];
            bit = sp.byteOffset * 8 + rng.below(64 * 8);
        }
        flash::PageStore mutant(rig.cfg.flash);
        ASSERT_TRUE(mutant.program(ppa, rig.store->read(ppa)));
        ASSERT_TRUE(mutant.corruptBit(ppa, bit / 8, bit % 8));
        const dg::PageByteSource src(mutant, rig.feat.dim());
        for (unsigned idx = 0; idx < dg::kMaxSectionsPerPage; ++idx) {
            for (bool secondary : {false, true}) {
                flash::GnnSampleParams p;
                p.ppa = ppa;
                p.sectionIndex = static_cast<std::uint8_t>(idx);
                p.isSecondary = secondary;
                p.retrieveFeature = !secondary;
                p.sampleCount =
                    static_cast<std::uint8_t>(1 + rng.below(8));
                p.secondaryOrdinal =
                    static_cast<std::uint16_t>(rng.below(4));
                flash::GnnSampleResult r =
                    sampleOnce(s, src.fetch(dg::DgAddress(ppa, idx)), p);
                if (r.ok) {
                    ++ok;
                    EXPECT_LE(r.follow.size(), p.sampleCount);
                } else {
                    ++aborted;
                }
            }
        }
    }
    // Both outcomes occur, so both paths were fuzzed.
    EXPECT_GT(ok, 0u);
    EXPECT_GT(aborted, 0u);
}

TEST(DieSampler, FinalHopRetrievesFeatureOnly)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    dg::DgAddress a = rig.layout.nodes[9].primary;
    flash::GnnSampleParams p;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.hop = rig.model.hops;
    p.finalHop = true;
    p.sampleCount = 0;
    flash::GnnSampleResult r = sampleOnce(s, rig.bytes->fetch(a), p);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.featureIncluded);
    EXPECT_EQ(r.featureBytes, rig.feat.bytesPerNode());
    EXPECT_TRUE(r.follow.empty());
    EXPECT_EQ(r.nodeId, 9u);
}

TEST(DieSampler, CoalescesSecondaryHits)
{
    Rig rig;
    flash::GnnGlobalConfig gc = rig.gnnCfg();
    gc.fanout = 32; // Many draws so several land per secondary.
    DieSampler s(rig.cfg.engine, gc);
    const auto &nl = rig.layout.nodes[0];
    ASSERT_GT(nl.secondaries.size(), 0u);

    flash::GnnSampleParams p;
    p.ppa = nl.primary.page();
    p.sectionIndex = static_cast<std::uint8_t>(nl.primary.section());
    p.hop = 0;
    p.sampleCount = 32;
    p.retrieveFeature = true;
    flash::GnnSampleResult r = sampleOnce(s, rig.bytes->fetch(nl.primary), p);
    ASSERT_TRUE(r.ok);

    // At most one command per secondary section; counts sum with the
    // in-page picks to the fanout.
    std::map<std::uint32_t, int> per_addr;
    std::uint32_t total = 0;
    for (const auto &f : r.follow) {
        if (f.isSecondary) {
            dg::DgAddress a(f.ppa, f.sectionIndex);
            ++per_addr[a.raw];
            total += f.sampleCount;
        } else {
            ++total;
        }
    }
    EXPECT_EQ(total, 32u);
    for (const auto &[addr, count] : per_addr)
        EXPECT_EQ(count, 1);
    EXPECT_GE(per_addr.size(), 1u);
}

TEST(DieSampler, FrameBytesReflectContent)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    dg::DgAddress a = rig.layout.nodes[3].primary;
    flash::GnnSampleParams p;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.sampleCount = 3;
    p.retrieveFeature = true;
    flash::GnnSampleResult r = sampleOnce(s, rig.bytes->fetch(a), p);
    EXPECT_EQ(r.frameBytes(),
              16u + rig.feat.bytesPerNode() + 12u * r.follow.size());
    EXPECT_GT(s.latency(r), 0u);
}

/**
 * Drive the sampler recursively through byte-backed sections and
 * check the resulting subgraph equals the golden layoutSample().
 */
TEST(DieSampler, RecursiveExpansionMatchesGoldenSampler)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    std::uint64_t batch = 4;

    gnn::Subgraph got;
    struct Pending
    {
        flash::GnnSampleParams p;
    };
    std::vector<Pending> work;
    std::vector<graph::NodeId> targets = {0, 1, 64};
    for (auto t : targets) {
        Pending w;
        dg::DgAddress a = rig.layout.primaryOf(t);
        w.p.ppa = a.page();
        w.p.sectionIndex = static_cast<std::uint8_t>(a.section());
        w.p.hop = 0;
        w.p.batchId = static_cast<std::uint32_t>(batch);
        w.p.parentSlot = gnn::kNoParent;
        w.p.retrieveFeature = true;
        w.p.sampleCount = rig.model.fanout;
        work.push_back(w);
    }
    while (!work.empty()) {
        Pending w = work.back();
        work.pop_back();
        auto sec = rig.bytes->fetch(
            dg::DgAddress(w.p.ppa, w.p.sectionIndex));
        flash::GnnSampleResult r = sampleOnce(s, sec, w.p);
        ASSERT_TRUE(r.ok);
        gnn::Slot parent = w.p.parentSlot;
        if (!w.p.isSecondary) {
            parent = got.add(static_cast<graph::NodeId>(r.nodeId),
                             w.p.hop, w.p.parentSlot);
        }
        for (auto f : r.follow) {
            f.parentSlot = parent;
            work.push_back({f});
        }
    }

    gnn::Subgraph golden =
        gnn::layoutSample(rig.g, rig.layout, rig.model, batch, targets);

    // Compare per-parent child multisets (expansion order differs).
    auto childMap = [](const gnn::Subgraph &sg) {
        std::map<std::pair<gnn::Slot, int>,
                 std::multiset<graph::NodeId>> m;
        // Key children by (parent node instance path); approximate by
        // (parent node, parent hop) aggregated multiset.
        std::map<std::pair<graph::NodeId, int>,
                 std::multiset<graph::NodeId>> agg;
        for (gnn::Slot slot = 0; slot < sg.size(); ++slot) {
            const auto &e = sg[slot];
            if (e.parent == gnn::kNoParent)
                continue;
            const auto &p = sg[e.parent];
            agg[{p.node, p.hop}].insert(e.node);
        }
        return agg;
    };
    auto a = childMap(got);
    auto b = childMap(golden);
    EXPECT_EQ(got.size(), golden.size());
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// GnnEngine end-to-end.
// ---------------------------------------------------------------

struct EngineRig : Rig
{
    EngineRig() : Rig(true) {}

    /** The last run's config-broadcast completion (0 without one). */
    sim::Tick configuredAt = 0;

    /** One batch on a fresh single SSD wired for @p flags. */
    PrepResult
    run(const PrepFlags &flags, const dg::SectionSource &src,
        std::vector<graph::NodeId> targets, std::uint64_t batch = 1)
    {
        platforms::PlatformConfig platform;
        platform.flags = flags;
        platforms::DeviceContext dev(platform, cfg, {}, model,
                                     layout.blocks, 0, false);
        GnnEngine engine({dev.port()}, layout, g, model, flags, src);
        PrepResult pr = engine.run(0, batch, targets);
        configuredAt = engine.configuredAt();
        return pr;
    }
};

PrepFlags
streamingFlags(SamplingLoc loc, bool router)
{
    PrepFlags f;
    f.sampling = loc;
    f.directGraph = true;
    f.hwRouter = router;
    return f;
}

TEST(GnnEngine, StreamingSubgraphMatchesGolden)
{
    EngineRig rig;
    std::vector<graph::NodeId> targets = {0, 5, 100};
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 9);
    ASSERT_TRUE(pr.ok);

    gnn::Subgraph golden =
        gnn::layoutSample(rig.g, rig.layout, rig.model, 9, targets);
    EXPECT_EQ(pr.subgraph.size(), golden.size());

    // Same per-(node,hop) child multisets.
    auto agg = [](const gnn::Subgraph &sg) {
        std::map<std::pair<graph::NodeId, int>,
                 std::multiset<graph::NodeId>> m;
        for (gnn::Slot s = 0; s < sg.size(); ++s) {
            const auto &e = sg[s];
            if (e.parent == gnn::kNoParent)
                continue;
            m[{sg[e.parent].node, sg[e.parent].hop}].insert(e.node);
        }
        return m;
    };
    EXPECT_EQ(agg(pr.subgraph), agg(golden));
    // Hop counts follow the fanout tree.
    auto counts = pr.subgraph.hopCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 3u);
    EXPECT_EQ(counts[1], 9u);
    EXPECT_EQ(counts[3], 81u);
}

TEST(GnnEngine, StreamingVariantsProduceSameSubgraph)
{
    // BG-DG (firmware), BG-DGSP (die+fw), BG-2 (die+router) must all
    // sample identically — only their timing differs.
    std::vector<graph::NodeId> targets = {0, 7, 31};
    EngineRig r1, r2, r3;
    PrepResult a = r1.run(streamingFlags(SamplingLoc::Firmware, false),
                          *r1.bytes, targets, 3);
    PrepResult b = r2.run(streamingFlags(SamplingLoc::Die, false),
                          *r2.bytes, targets, 3);
    PrepResult c = r3.run(streamingFlags(SamplingLoc::Die, true),
                          *r3.bytes, targets, 3);
    ASSERT_TRUE(a.ok && b.ok && c.ok);
    EXPECT_EQ(a.subgraph.size(), b.subgraph.size());
    EXPECT_EQ(b.subgraph.size(), c.subgraph.size());
    // And BG-2 must not be slower than BG-DGSP, which must not be
    // slower than BG-DG on the same workload.
    EXPECT_LE(c.finish - c.start, b.finish - b.start);
    EXPECT_LE(b.finish - b.start, a.finish - a.start);
}

TEST(GnnEngine, ByteAndLayoutSourcesSameSubgraphAndTiming)
{
    std::vector<graph::NodeId> targets = {0, 2, 90};
    EngineRig r1, r2;
    PrepResult a = r1.run(streamingFlags(SamplingLoc::Die, true),
                          *r1.bytes, targets, 5);
    PrepResult b = r2.run(streamingFlags(SamplingLoc::Die, true),
                          *r2.meta, targets, 5);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.subgraph.size(), b.subgraph.size());
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.commands, b.commands);
}

TEST(GnnEngine, BarrierModeBuildsFullSubgraph)
{
    EngineRig rig;
    PrepFlags f; // Firmware sampling, no DirectGraph: BG-1.
    f.sampling = SamplingLoc::Firmware;
    std::vector<graph::NodeId> targets = {1, 2};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 2);
    ASSERT_TRUE(pr.ok);
    EXPECT_EQ(pr.subgraph.size(), 2u * rig.model.subgraphNodes());
    // Hop spans are strictly ordered (no overlap).
    ASSERT_EQ(pr.hops.size(), 4u);
    for (std::size_t h = 0; h + 1 < pr.hops.size(); ++h) {
        EXPECT_LE(pr.hops[h].last, pr.hops[h + 1].first)
            << "hop " << h << " overlaps hop " << h + 1;
    }
}

TEST(GnnEngine, StreamingOverlapsHops)
{
    EngineRig rig;
    std::vector<graph::NodeId> targets;
    for (graph::NodeId t = 0; t < 32; ++t)
        targets.push_back(t * 4);
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 1);
    ASSERT_TRUE(pr.ok);
    // Out-of-order streaming: later hops start before earlier hops
    // fully drain.
    bool overlap = false;
    for (std::size_t h = 0; h + 1 < pr.hops.size(); ++h)
        overlap |= pr.hops[h + 1].first < pr.hops[h].last;
    EXPECT_TRUE(overlap);
}

TEST(GnnEngine, BarrierCsrSemanticsMatchGolden)
{
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Host;
    std::vector<graph::NodeId> targets = {3, 40};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 6);
    ASSERT_TRUE(pr.ok);
    gnn::Subgraph golden = gnn::csrSample(rig.g, rig.model, 6, targets);
    ASSERT_EQ(pr.subgraph.size(), golden.size());
    auto agg = [](const gnn::Subgraph &sg) {
        std::map<std::pair<graph::NodeId, int>,
                 std::multiset<graph::NodeId>> m;
        for (gnn::Slot s = 0; s < sg.size(); ++s) {
            const auto &e = sg[s];
            if (e.parent == gnn::kNoParent)
                continue;
            m[{sg[e.parent].node, sg[e.parent].hop}].insert(e.node);
        }
        return m;
    };
    EXPECT_EQ(agg(pr.subgraph), agg(golden));
}

TEST(GnnEngine, AbortSurfacesAsNotOk)
{
    EngineRig rig;
    // Corrupt the type byte of a target's primary section so the
    // on-die check fails at runtime (§VI-E).
    dg::DgAddress a = rig.layout.primaryOf(64);
    const dg::SectionPlacement *sp = rig.layout.directory.find(a);
    ASSERT_NE(sp, nullptr);
    rig.store->corruptBit(a.page(), sp->byteOffset, 7);
    std::vector<graph::NodeId> targets = {64};
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 1);
    EXPECT_FALSE(pr.ok);
    EXPECT_GT(pr.tally.abortedCommands, 0u);
}

TEST(GnnEngine, DedupeHitOfACorruptSectionAborts)
{
    EngineRig rig;
    // The corrupted primary of AbortSurfacesAsNotOk, requested twice:
    // the second request is a dedupe hit whose on-die check fails too.
    dg::DgAddress a = rig.layout.primaryOf(64);
    const dg::SectionPlacement *sp = rig.layout.directory.find(a);
    ASSERT_NE(sp, nullptr);
    rig.store->corruptBit(a.page(), sp->byteOffset, 7);
    PrepFlags f = streamingFlags(SamplingLoc::Die, true);
    f.dedupeNodes = true;
    PrepResult pr = rig.run(f, *rig.bytes, {64, 64}, 1);
    EXPECT_FALSE(pr.ok);
    EXPECT_EQ(pr.dedupedReads, 1u);
    EXPECT_EQ(pr.tally.abortedCommands, 2u);
}

TEST(GnnEngine, DedupeHitMovesItsFrameThroughDram)
{
    // Keyed draws make both instances of a target expand the same
    // tree, so the second one is served from DRAM end to end: every
    // dedupe hit adds at least a frame header to the DRAM tally, as a
    // cache hit does.
    PrepFlags f = streamingFlags(SamplingLoc::Die, true);
    f.dedupeNodes = true;
    EngineRig r1, r2;
    PrepResult once = r1.run(f, *r1.bytes, {5}, 1);
    PrepResult twice = r2.run(f, *r2.bytes, {5, 5}, 1);
    ASSERT_TRUE(once.ok && twice.ok);
    ASSERT_GT(twice.dedupedReads, once.dedupedReads);
    EXPECT_EQ(twice.tally.flashReads, once.tally.flashReads);
    EXPECT_GE(twice.tally.dramBytes - once.tally.dramBytes,
              16u * (twice.dedupedReads - once.dedupedReads));
}

TEST(GnnEngine, DedupeForgetsEarlierBatches)
{
    // A batch's dedupe state ends with it: the same targets, run twice
    // on one engine under one batch id, sense the same primaries the
    // second time instead of serving them as dedupe hits.
    EngineRig rig;
    PrepFlags f = streamingFlags(SamplingLoc::Die, true);
    f.dedupeNodes = true;
    platforms::PlatformConfig platform;
    platform.flags = f;
    platforms::DeviceContext dev(platform, rig.cfg, {}, rig.model,
                                 rig.layout.blocks, 0, false);
    GnnEngine engine({dev.port()}, rig.layout, rig.g, rig.model, f,
                     *rig.bytes);
    const std::vector<graph::NodeId> targets = {5, 5};
    PrepResult first = engine.run(0, 1, targets);
    PrepResult second = engine.run(first.finish, 1, targets);
    ASSERT_TRUE(first.ok && second.ok);
    EXPECT_GT(first.dedupedReads, 0u);
    EXPECT_EQ(second.dedupedReads, first.dedupedReads);
    EXPECT_EQ(second.tally.flashReads, first.tally.flashReads);
}

TEST(GnnEngine, EmptyBatchFinishesAtSubmit)
{
    // An empty mini-batch issues no command: it finishes when its
    // SubmitBatch completes, after the die-sampling platforms' first-
    // batch config broadcast, on the barrier (BG-1) and the streaming
    // (BG-2) pipeline alike.
    PrepFlags bg1; // Firmware sampling, no DirectGraph.
    for (const PrepFlags &f :
         {bg1, streamingFlags(SamplingLoc::Die, true)}) {
        EngineRig rig;
        PrepResult pr = rig.run(f, *rig.meta, {});
        EXPECT_TRUE(pr.ok);
        EXPECT_EQ(pr.commands, 0u);
        EXPECT_EQ(pr.tally.flashReads, 0u);
        EXPECT_EQ(pr.subgraph.size(), 0u);
        EXPECT_EQ(rig.configuredAt > 0, f.directGraph);
        EXPECT_EQ(pr.finish, rig.configuredAt + rig.cfg.host.batchOverhead +
                                 rig.cfg.host.nvmeRoundTrip);
    }

    // And on a two-device BG-2 array, through the platform session.
    ssd::SystemConfig sys;
    graph::WorkloadSpec spec = graph::workload("amazon");
    spec.simNodes = 2000;
    auto bundle = platforms::makeBundle(spec, sys.flash, {});
    platforms::RunConfig rc;
    rc.topology.devices = 2;
    platforms::PlatformSession session(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle);
    platforms::BatchService svc = session.runBatch(0, {});
    platforms::RunResult rr = session.finish();
    const sim::Gauge *configured =
        session.metrics().findGauge("engine.config_broadcast_ticks");
    ASSERT_NE(configured, nullptr);
    EXPECT_GT(configured->value(), 0.0);
    EXPECT_TRUE(svc.ok && rr.ok);
    EXPECT_EQ(rr.commands, 0u);
    EXPECT_EQ(rr.tally.flashReads, 0u);
    EXPECT_EQ(rr.lastSubgraph.size(), 0u);
    EXPECT_EQ(svc.prepFinish,
              static_cast<sim::Tick>(configured->value()) +
                  sys.host.batchOverhead + sys.host.nvmeRoundTrip);
}

TEST(GnnEngine, TalliesAreConsistent)
{
    EngineRig rig;
    std::vector<graph::NodeId> targets = {0, 1, 2, 3};
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 1);
    ASSERT_TRUE(pr.ok);
    EXPECT_EQ(pr.commands, pr.tally.flashReads);
    EXPECT_GT(pr.tally.channelBytes, 0u);
    // Features staged for every subgraph node.
    EXPECT_EQ(pr.tally.featureBytes,
              pr.subgraph.size() *
                  std::uint64_t{rig.feat.bytesPerNode()});
    EXPECT_GE(pr.finish, pr.start);
    EXPECT_EQ(pr.cmdStats.lifetime.count(), pr.commands);
}

} // namespace

namespace {

using namespace beacongnn;
using namespace beacongnn::engines;

/** Hub-heavy rig reused for barrier-mode specifics. */
TEST(GnnEngineBarrier, BgSpContinuationsMatchSecondaryHits)
{
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Die;
    std::vector<graph::NodeId> targets = {0}; // The hub node.
    PrepResult pr = rig.run(f, *rig.bytes, targets, 4);
    ASSERT_TRUE(pr.ok);
    // The hub's fanout-3 draws mostly land in secondaries; the reads
    // must include the coalesced continuations: commands exceed the
    // subgraph sampling visits but stay bounded by visits * (1 +
    // fanout) + final-hop features.
    auto counts = pr.subgraph.hopCounts();
    std::uint64_t visits = 0;
    for (std::size_t h = 0; h + 1 < counts.size(); ++h)
        visits += counts[h];
    std::uint64_t finals = counts.back();
    EXPECT_GE(pr.commands, visits + finals);
    EXPECT_LE(pr.commands,
              visits * (1 + rig.model.fanout) + finals);
}

TEST(GnnEngineBarrier, HostSamplingChargesHostCpu)
{
    EngineRig host_rig, fw_rig;
    PrepFlags host_flags;
    host_flags.sampling = SamplingLoc::Host;
    PrepFlags fw_flags;
    fw_flags.sampling = SamplingLoc::Firmware;
    std::vector<graph::NodeId> targets = {1, 2, 3};
    PrepResult h = host_rig.run(host_flags, *host_rig.bytes, targets, 2);
    PrepResult w = fw_rig.run(fw_flags, *fw_rig.bytes, targets, 2);
    ASSERT_TRUE(h.ok && w.ok);
    // Host sampling pays per-visit CPU plus per-page I/O overhead;
    // firmware sampling pays neither on the host side.
    EXPECT_GT(h.tally.hostCpuBusy, 2 * w.tally.hostCpuBusy);
    // Neighbour-list pages crossed PCIe only on the host-sampling
    // platform (the firmware one returns just the sampled ids).
    EXPECT_GT(h.tally.pcieBytes, 0u);
}

TEST(GnnEngineBarrier, HopSpansAreMonotone)
{
    // In barrier mode each hop's first activity follows the previous
    // hop's start (hops begin in order even where reads tail over).
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Firmware;
    std::vector<graph::NodeId> targets = {5, 6, 7, 8};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 3);
    ASSERT_TRUE(pr.ok);
    for (std::size_t h = 0; h + 1 < pr.hops.size(); ++h) {
        EXPECT_LE(pr.hops[h].first, pr.hops[h + 1].first);
        EXPECT_LE(pr.hops[h].last, pr.hops[h + 1].first)
            << "barrier violated between hops " << h << " and "
            << h + 1;
    }
}

TEST(GnnEngineBarrier, LifetimeHistogramTracksAccumulator)
{
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Die;
    f.directGraph = true;
    f.hwRouter = true;
    std::vector<graph::NodeId> targets = {0, 9, 18};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 6);
    ASSERT_TRUE(pr.ok);
    EXPECT_EQ(pr.cmdStats.lifetimeHist.summary().count(),
              pr.cmdStats.lifetime.count());
    // Percentiles bracket the mean sensibly.
    EXPECT_GE(pr.cmdStats.lifetimeHist.percentile(99) + 10.0,
              pr.cmdStats.lifetime.mean());
    EXPECT_LE(pr.cmdStats.lifetimeHist.percentile(1),
              pr.cmdStats.lifetime.max() + 10.0);
}

} // namespace
