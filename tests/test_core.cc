/**
 * @file
 * End-to-end tests of the public BeaconGnnSystem API: ingest + flush,
 * mini-batch serving with functional embeddings, equivalence with the
 * golden sampler + forward pass, scrubbing after fault injection, and
 * wear-levelling reclamation preserving results.
 */

#include <gtest/gtest.h>

#include "core/beacongnn.h"
#include "gnn/compute.h"
#include "graph/generator.h"
#include "sim/rng.h"

#include <unordered_set>

namespace {

using namespace beacongnn;

SystemOptions
smallOptions(platforms::PlatformKind kind = platforms::PlatformKind::BG2)
{
    SystemOptions o;
    o.system.flash.channels = 4;
    o.system.flash.diesPerChannel = 2;
    o.system.flash.blocksPerPlane = 256;
    o.system.flash.pagesPerBlock = 32;
    o.platform = kind;
    o.model.hops = 2;
    o.model.fanout = 3;
    o.model.hiddenDim = 16;
    o.model.seed = 21;
    return o;
}

graph::Graph
testGraph()
{
    graph::GeneratorParams p;
    p.nodes = 800;
    p.avgDegree = 30;
    p.maxDegree = 3000;
    p.seed = 17;
    return graph::generatePowerLaw(p);
}

TEST(BeaconGnnSystem, IngestFlushesVerifiedDirectGraph)
{
    BeaconGnnSystem sys(testGraph(), graph::FeatureTable(24, 3),
                        smallOptions());
    EXPECT_GT(sys.flushTime(), 0u);
    EXPECT_GT(sys.layout().directory.pageCount(), 0u);
    EXPECT_EQ(sys.pageStore().programmedPages(),
              sys.layout().directory.pageCount());
    EXPECT_GT(sys.buildStats().rawBytes, 0u);
    // All DirectGraph blocks are reserved (isolated from regular IO).
    for (auto b : sys.layout().blocks)
        EXPECT_TRUE(sys.firmware().ftl().isReserved(b));
}

TEST(BeaconGnnSystem, MiniBatchMatchesGoldenPipeline)
{
    graph::Graph g = testGraph();
    graph::FeatureTable feat(24, 3);
    SystemOptions opts = smallOptions();
    BeaconGnnSystem sys(g, feat, opts);

    std::vector<graph::NodeId> targets = {1, 99, 500};
    MiniBatchResult r = sys.runMiniBatch(targets);
    EXPECT_TRUE(r.prep.ok);
    ASSERT_EQ(r.embeddings.size(), targets.size());
    EXPECT_EQ(r.embeddings[0].size(), sys.model().hiddenDim);

    // Golden: layout-aware sampling + forward pass must agree in
    // subgraph size and in every hop-0 embedding value.
    gnn::ModelConfig m = sys.model();
    gnn::Subgraph golden =
        gnn::layoutSample(sys.graph(), sys.layout(), m, 0, targets);
    EXPECT_EQ(r.prep.subgraph.size(), golden.size());

    auto golden_out = gnn::forward(golden, feat, m);
    ASSERT_EQ(golden_out.size(), r.embeddings.size());
    // Embedding sets agree as multisets of vectors (entry order can
    // differ between streaming and recursive expansion).
    for (const auto &want : golden_out) {
        bool found = false;
        for (const auto &got : r.embeddings) {
            bool same = got.size() == want.size();
            for (std::size_t i = 0; same && i < got.size(); ++i)
                same = got[i] == want[i];
            found |= same;
        }
        EXPECT_TRUE(found);
    }
}

TEST(BeaconGnnSystem, NextBatchStartsWhenThePreviousPrepFinishes)
{
    // GnnEngine::run charges the SubmitBatch command itself (batch
    // overhead plus an NVMe round trip), so the facade hands it the
    // previous batch's prep finish as is: it charges no second
    // SubmitBatch of its own.
    BeaconGnnSystem sys(testGraph(), graph::FeatureTable(16, 3),
                        smallOptions());
    std::vector<graph::NodeId> t1 = {1, 2};
    std::vector<graph::NodeId> t2 = {3, 4};
    auto r1 = sys.runMiniBatch(t1);
    auto r2 = sys.runMiniBatch(t2);
    ASSERT_TRUE(r1.prep.ok);
    EXPECT_EQ(r2.prep.start, r1.prep.finish);
}

TEST(BeaconGnnSystem, ConsecutiveBatchesAdvanceTime)
{
    BeaconGnnSystem sys(testGraph(), graph::FeatureTable(16, 3),
                        smallOptions());
    std::vector<graph::NodeId> t1 = {1, 2};
    std::vector<graph::NodeId> t2 = {3, 4};
    auto r1 = sys.runMiniBatch(t1);
    auto r2 = sys.runMiniBatch(t2);
    EXPECT_GT(r2.prep.start, r1.prep.start);
    EXPECT_GE(r2.prep.finish, r1.prep.finish);
    // Compute pipelines behind prep on the accelerator.
    EXPECT_GE(r2.finish, r1.finish);
    // Different batch ids draw different samples (w.h.p.).
    auto c1 = r1.prep.subgraph.hopCounts();
    auto c2 = r2.prep.subgraph.hopCounts();
    EXPECT_EQ(c1[0], c2[0]);
}

TEST(BeaconGnnSystem, ComputeStagesFeaturesThroughDram)
{
    // The facade books its compute stage as a platform session does:
    // the features the device prepared stream DRAM -> accelerator
    // SRAM on top of the prep traffic.
    BeaconGnnSystem sys(testGraph(), graph::FeatureTable(24, 3),
                        smallOptions());
    const std::uint64_t before = sys.firmware().dram().bytesMoved();
    std::vector<graph::NodeId> targets = {1, 99, 500, 7};
    MiniBatchResult r = sys.runMiniBatch(targets);
    ASSERT_TRUE(r.prep.ok);
    ASSERT_GT(r.prep.perDevice[0].featureBytes, 0u);
    EXPECT_EQ(sys.firmware().dram().bytesMoved() - before,
              r.prep.tally.dramBytes + r.prep.perDevice[0].featureBytes);
}

TEST(BeaconGnnSystem, ScrubRepairsInjectedFault)
{
    graph::Graph g = testGraph();
    graph::FeatureTable feat(24, 3);
    BeaconGnnSystem sys(g, feat, smallOptions());

    std::vector<graph::NodeId> targets = {5, 10};
    auto before = sys.runMiniBatch(targets);

    // Inject a retention error into a primary page, scrub, re-run.
    flash::Ppa victim = sys.layout().nodes[5].primary.page();
    ASSERT_TRUE(sys.corruptBit(victim, 33, 4));
    ssd::ScrubReport rep = sys.scrub();
    EXPECT_GE(rep.errorsFound, 1u);
    EXPECT_GE(rep.blocksReprogrammed, 1u);

    auto after = sys.runMiniBatch(targets);
    EXPECT_TRUE(after.prep.ok);
    EXPECT_EQ(after.prep.subgraph.size(), before.prep.subgraph.size());
}

TEST(BeaconGnnSystem, CorruptionWithoutScrubAborts)
{
    graph::Graph g = testGraph();
    BeaconGnnSystem sys(g, graph::FeatureTable(24, 3), smallOptions());
    // Flip the type byte of a target's primary section header.
    dg::DgAddress a = sys.layout().primaryOf(7);
    const dg::SectionPlacement *sp = sys.layout().directory.find(a);
    ASSERT_NE(sp, nullptr);
    ASSERT_TRUE(sys.corruptBit(a.page(), sp->byteOffset, 6));
    std::vector<graph::NodeId> targets = {7};
    auto r = sys.runMiniBatch(targets);
    // §VI-E: the on-die check catches it and control returns to
    // firmware; the batch reports failure rather than bad data.
    EXPECT_FALSE(r.prep.ok);
    EXPECT_GT(r.prep.tally.abortedCommands, 0u);
}

TEST(BeaconGnnSystem, NodeIdFlipInAHeaderAborts)
{
    // The system of examples/reliability_ops. Bit 6 of header byte 7
    // is in the top byte of the node id: the section still decodes,
    // but names node 7 + 2^30. The §VI-E check compares the section's
    // node with the one the target command expects, so the batch
    // aborts instead of returning a subgraph rooted at a node that
    // does not exist.
    graph::GeneratorParams gp;
    gp.nodes = 3000;
    gp.avgDegree = 40;
    gp.seed = 11;
    SystemOptions opts;
    opts.model.hops = 2;
    BeaconGnnSystem sys(graph::generatePowerLaw(gp),
                        graph::FeatureTable(32, gp.seed), opts);
    const dg::DgAddress a = sys.layout().primaryOf(7);
    const dg::SectionPlacement *sp = sys.layout().directory.find(a);
    ASSERT_NE(sp, nullptr);
    ASSERT_TRUE(sys.corruptBit(a.page(), sp->byteOffset + 7, 6));
    std::vector<graph::NodeId> targets = {7};
    auto r = sys.runMiniBatch(targets);
    EXPECT_FALSE(r.prep.ok);
    EXPECT_EQ(r.prep.tally.abortedCommands, 1u);
    EXPECT_EQ(r.prep.subgraph.size(), 0u);

    // Bit 0 of byte 4 turns node 9 into node 8, which exists: only the
    // expected-node check can tell.
    const dg::DgAddress b = sys.layout().primaryOf(9);
    const dg::SectionPlacement *sb = sys.layout().directory.find(b);
    ASSERT_NE(sb, nullptr);
    ASSERT_TRUE(sys.corruptBit(b.page(), sb->byteOffset + 4, 0));
    targets = {9};
    r = sys.runMiniBatch(targets);
    EXPECT_FALSE(r.prep.ok);
    EXPECT_EQ(r.prep.tally.abortedCommands, 1u);
    EXPECT_EQ(r.prep.subgraph.size(), 0u);
}

TEST(BeaconGnnSystem, ChildNamingANodePastTheGraphAborts)
{
    // A primary child carries no expected node (the die knows only its
    // address), so a child section whose node id lies past the graph
    // is caught by the node range instead. Two identical systems run
    // the same first batch: the clean one names a hop-1 child, the
    // other has that child's node id corrupted.
    graph::Graph g = testGraph();
    std::vector<graph::NodeId> targets = {7};
    BeaconGnnSystem clean(g, graph::FeatureTable(24, 3), smallOptions());
    auto ref = clean.runMiniBatch(targets);
    ASSERT_TRUE(ref.prep.ok);
    graph::NodeId child = 0;
    bool found = false;
    for (const auto &e : ref.prep.subgraph.all()) {
        if (e.hop == 1 && e.node != 7) {
            child = e.node;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    BeaconGnnSystem sys(g, graph::FeatureTable(24, 3), smallOptions());
    const dg::DgAddress a = sys.layout().primaryOf(child);
    const dg::SectionPlacement *sp = sys.layout().directory.find(a);
    ASSERT_NE(sp, nullptr);
    ASSERT_TRUE(sys.corruptBit(a.page(), sp->byteOffset + 7, 6));
    auto r = sys.runMiniBatch(targets);
    EXPECT_FALSE(r.prep.ok);
    EXPECT_GT(r.prep.tally.abortedCommands, 0u);
    for (const auto &e : r.prep.subgraph.all())
        EXPECT_LT(e.node, g.numNodes());
}

TEST(BeaconGnnSystem, BitFlippedPagesAbortButNeverCrash)
{
    // Seeded bit flips in the materialized DirectGraph pages, each
    // followed by a short BG-2 batch through the byte-backed source:
    // a batch may abort, but none may crash or read out of bounds
    // (the sanitizer builds run this too), and every node it returns
    // exists. A scrub repairs the page before the next round.
    graph::Graph g = testGraph();
    BeaconGnnSystem sys(g, graph::FeatureTable(24, 3), smallOptions());
    std::vector<flash::Ppa> pages;
    sys.layout().directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const dg::SectionPlacement>) {
            pages.push_back(ppa);
        });
    ASSERT_FALSE(pages.empty());
    const std::uint32_t page_bits =
        smallOptions().system.flash.pageSize * 8;
    sim::Pcg32 rng(0xF11B, 7);
    unsigned aborted = 0;
    for (int round = 0; round < 48; ++round) {
        const flash::Ppa ppa =
            pages[rng.below(static_cast<std::uint32_t>(pages.size()))];
        // Half the flips hit a section's first 64 bytes: its header
        // and its first references or addresses.
        std::uint32_t bit = rng.below(page_bits);
        if (round % 2 == 0) {
            const auto row = sys.layout().directory.page(ppa);
            const dg::SectionPlacement &sp =
                row[rng.below(static_cast<std::uint32_t>(row.size()))];
            bit = sp.byteOffset * 8 + rng.below(64 * 8);
        }
        ASSERT_TRUE(sys.corruptBit(ppa, bit / 8, bit % 8));
        // The owners of the page's sections, then random nodes.
        std::vector<graph::NodeId> targets;
        for (const dg::SectionPlacement &sp :
             sys.layout().directory.page(ppa))
            targets.push_back(sp.node);
        for (int i = 0; i < 4; ++i)
            targets.push_back(rng.below(g.numNodes()));
        auto r = sys.runMiniBatch(targets);
        if (!r.prep.ok)
            ++aborted;
        for (const auto &e : r.prep.subgraph.all())
            ASSERT_LT(e.node, g.numNodes()) << "round " << round;
        sys.scrub();
    }
    EXPECT_GT(aborted, 0u);
}

TEST(BeaconGnnSystem, ReclaimPreservesBehaviour)
{
    graph::Graph g = testGraph();
    graph::FeatureTable feat(24, 3);
    BeaconGnnSystem sys(g, feat, smallOptions());

    std::vector<graph::NodeId> targets = {11, 222};
    auto before = sys.runMiniBatch(targets);
    auto old_blocks = sys.layout().blocks;

    // Age the regular blocks so the P/E gap crosses the threshold:
    // write through the regular FTL path, then wear those blocks.
    auto &store = sys.pageStore();
    auto &ftl = sys.firmware().ftl();
    std::vector<std::uint8_t> data(store.pageBytes(), 0xCD);
    std::unordered_set<flash::BlockId> worn;
    for (ssd::Lpa l = 0; l < 64; ++l) {
        auto p = ftl.translate(l, true);
        ASSERT_TRUE(p.has_value());
        worn.insert(store.addressCodec().blockOf(*p));
    }
    for (auto b : worn)
        for (int i = 0; i < 100; ++i)
            store.eraseBlock(b);
    ASSERT_GT(ftl.peGap(store), 10.0);
    ASSERT_TRUE(sys.reclaimIfNeeded(10.0));
    // Migrated to different blocks.
    bool moved = sys.layout().blocks != old_blocks;
    EXPECT_TRUE(moved);

    // Note: reclamation rewrites physical addresses, so sampled
    // subgraphs keep their SHAPE; node-level draws may differ because
    // in-page splits can change with the new packing.
    auto after = sys.runMiniBatch(targets);
    EXPECT_TRUE(after.prep.ok);
    auto ca = after.prep.subgraph.hopCounts();
    auto cb = before.prep.subgraph.hopCounts();
    ASSERT_EQ(ca.size(), cb.size());
    EXPECT_EQ(ca[0], cb[0]);
}

TEST(BeaconGnnSystem, PlatformChoiceAffectsTimingNotResults)
{
    graph::Graph g = testGraph();
    graph::FeatureTable feat(16, 3);
    BeaconGnnSystem fast(g, feat,
                         smallOptions(platforms::PlatformKind::BG2));
    BeaconGnnSystem slow(
        g, feat, smallOptions(platforms::PlatformKind::BG_DGSP));
    std::vector<graph::NodeId> targets(64);
    for (std::size_t i = 0; i < targets.size(); ++i)
        targets[i] = static_cast<graph::NodeId>(i * 7 % 800);
    auto a = fast.runMiniBatch(targets);
    auto b = slow.runMiniBatch(targets);
    // Same sampled subgraph size, same embedding multiset.
    EXPECT_EQ(a.prep.subgraph.size(), b.prep.subgraph.size());
    // BG-2 prepares no slower than BG-DGSP (5% latency-constant
    // slack: at trivial load the two paths are nearly equal).
    EXPECT_LE(static_cast<double>(a.prep.finish - a.prep.start),
              1.05 * static_cast<double>(b.prep.finish - b.prep.start));
}

} // namespace
