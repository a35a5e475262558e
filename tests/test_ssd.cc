/**
 * @file
 * Tests for the SSD frontend: FTL mapping and reserved blocks, ECC +
 * scrubbing repair, DirectGraph flush verification, and wear-
 * levelling reclamation (§VI-A/E/F).
 */

#include <gtest/gtest.h>

#include "directgraph/source.h"
#include "graph/generator.h"
#include "ssd/ecc.h"
#include "ssd/firmware.h"
#include "ssd/ftl.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::ssd;

SystemConfig
smallSystem()
{
    SystemConfig cfg;
    cfg.flash.channels = 4;
    cfg.flash.diesPerChannel = 2;
    cfg.flash.planesPerDie = 2;
    cfg.flash.blocksPerPlane = 32;
    cfg.flash.pagesPerBlock = 16;
    cfg.flash.pageSize = 4096;
    return cfg;
}

TEST(Ftl, TranslateAllocatesOnWrite)
{
    Ftl ftl(smallSystem().flash);
    EXPECT_FALSE(ftl.translate(100, false).has_value());
    auto w = ftl.translate(100, true);
    ASSERT_TRUE(w.has_value());
    // Reads hit the same mapping afterwards.
    auto r = ftl.translate(100, false);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, *w);
    EXPECT_TRUE(ftl.isMapped(100));
    // Distinct LPAs map to distinct PPAs.
    auto w2 = ftl.translate(101, true);
    ASSERT_TRUE(w2.has_value());
    EXPECT_NE(*w, *w2);
}

TEST(Ftl, ReservedBlocksAreIsolated)
{
    Ftl ftl(smallSystem().flash);
    auto blocks = ftl.reserveBlocks(4);
    ASSERT_EQ(blocks.size(), 4u);
    for (auto b : blocks)
        EXPECT_TRUE(ftl.isReserved(b));
    EXPECT_EQ(ftl.reservedCount(), 4u);

    // Regular writes never land in reserved blocks.
    for (Lpa l = 0; l < 200; ++l) {
        auto p = ftl.translate(l, true);
        ASSERT_TRUE(p.has_value());
        EXPECT_FALSE(ftl.ppaReserved(*p));
    }
    // Release returns them to the pool.
    ftl.releaseBlocks(blocks);
    EXPECT_EQ(ftl.reservedCount(), 0u);
}

TEST(Ftl, ReserveFailsWhenFull)
{
    Ftl ftl(smallSystem().flash);
    auto all = ftl.reserveBlocks(ftl.totalBlocks());
    EXPECT_EQ(all.size(), ftl.totalBlocks());
    EXPECT_TRUE(ftl.reserveBlocks(1).empty());
}

TEST(Ftl, PeGapTracksWear)
{
    auto cfg = smallSystem();
    Ftl ftl(cfg.flash);
    flash::PageStore store(cfg.flash);
    auto blocks = ftl.reserveBlocks(2);
    // Wear out some regular blocks.
    std::vector<std::uint8_t> data(cfg.flash.pageSize, 1);
    for (int round = 0; round < 10; ++round) {
        for (Lpa l = 0; l < 32; ++l) {
            auto p = ftl.translate(l + round * 1000, true);
            ASSERT_TRUE(p.has_value());
            store.program(*p, data);
        }
    }
    // Erase regular blocks a few times to accumulate P/E.
    for (flash::BlockId b = 0; b < ftl.totalBlocks(); ++b)
        if (!ftl.isReserved(b) && store.peCycles(b) == 0) {
            for (int i = 0; i < 8; ++i)
                store.eraseBlock(b);
            break;
        }
    EXPECT_GT(ftl.peGap(store), 0.0);
    EXPECT_TRUE(ftl.needsReclaim(store, 0.001));
    EXPECT_FALSE(ftl.needsReclaim(store, 1e9));
}

TEST(Ecc, Crc32DetectsChanges)
{
    std::vector<std::uint8_t> a(128, 7), b(128, 7);
    EXPECT_EQ(crc32c(a), crc32c(b));
    b[64] ^= 1;
    EXPECT_NE(crc32c(a), crc32c(b));
    EXPECT_EQ(crc32c({}), 0u);
}

TEST(Ecc, CheckAfterProgram)
{
    auto cfg = smallSystem();
    flash::PageStore store(cfg.flash);
    EccModel ecc;
    std::vector<std::uint8_t> data(cfg.flash.pageSize, 0x5A);
    store.program(7, data);
    ecc.onProgram(7, data);
    EXPECT_TRUE(ecc.check(7, store.read(7)));
    store.corruptBit(7, 1000, 2);
    EXPECT_FALSE(ecc.check(7, store.read(7)));
    // Unrecorded pages pass (no ECC on erased pages).
    EXPECT_TRUE(ecc.check(999, data));
}

TEST(Scrub, RepairsCorruptedBlock)
{
    auto cfg = smallSystem();
    flash::PageStore store(cfg.flash);
    EccModel ecc;
    // Program 4 pages of block 0 with a regenerable pattern.
    auto pattern = [&](flash::Ppa ppa, std::span<std::uint8_t> out) {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = static_cast<std::uint8_t>(ppa + i);
    };
    std::vector<std::uint8_t> buf(cfg.flash.pageSize);
    for (flash::Ppa p = 0; p < 4; ++p) {
        pattern(p, buf);
        store.program(p, buf);
        ecc.onProgram(p, buf);
    }
    store.corruptBit(2, 55, 1);

    std::vector<flash::BlockId> blocks = {0};
    ScrubReport rep = scrubBlocks(store, ecc, blocks,
                                  cfg.flash.pagesPerBlock, pattern);
    EXPECT_EQ(rep.pagesChecked, 4u);
    EXPECT_EQ(rep.errorsFound, 1u);
    EXPECT_EQ(rep.blocksReprogrammed, 1u);
    // Content repaired.
    pattern(2, buf);
    auto back = store.read(2);
    ASSERT_FALSE(back.empty());
    for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(back[i], buf[i]);
    // A clean pass finds nothing.
    ScrubReport clean = scrubBlocks(store, ecc, blocks,
                                    cfg.flash.pagesPerBlock, pattern);
    EXPECT_EQ(clean.errorsFound, 0u);
    EXPECT_EQ(clean.blocksReprogrammed, 0u);
}

class FirmwareTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg = smallSystem();
        fw = std::make_unique<Firmware>(cfg);
        backend = std::make_unique<flash::FlashBackend>(cfg.flash);
        store = std::make_unique<flash::PageStore>(cfg.flash);
        g = graph::generatePowerLaw({.nodes = 300,
                                     .avgDegree = 24,
                                     .exponent = 2.1,
                                     .minDegree = 2,
                                     .maxDegree = 800,
                                     .seed = 3});
        feat = std::make_unique<graph::FeatureTable>(24, 5);
        auto blocks = fw->ftl().reserveBlocks(64);
        ASSERT_FALSE(blocks.empty());
        layout = dg::buildLayout(g, *feat, cfg.flash, blocks);
    }

    SystemConfig cfg;
    std::unique_ptr<Firmware> fw;
    std::unique_ptr<flash::FlashBackend> backend;
    std::unique_ptr<flash::PageStore> store;
    graph::Graph g;
    std::unique_ptr<graph::FeatureTable> feat;
    dg::DirectGraphLayout layout;
};

TEST_F(FirmwareTest, FlushWritesAndVerifies)
{
    FlushResult res =
        fw->flushDirectGraph(0, layout, g, *feat, *store, *backend);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.pagesWritten, layout.directory.pageCount());
    EXPECT_EQ(res.pagesRejected, 0u);
    EXPECT_GT(res.finish, 0u);
    EXPECT_EQ(store->programmedPages(), layout.directory.pageCount());

    // All flushed pages pass ECC.
    layout.directory.forEachPage(
        [&](flash::Ppa ppa, std::span<const dg::SectionPlacement>) {
            EXPECT_TRUE(fw->ecc().check(ppa, store->read(ppa)));
        });
}

TEST_F(FirmwareTest, FlushRejectsUnreservedDestination)
{
    // A layout whose blocks were never reserved in this firmware's
    // FTL is refused (isolation, §VI-E).
    Firmware other(cfg);
    FlushResult res =
        other.flushDirectGraph(0, layout, g, *feat, *store, *backend);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.pagesWritten, 0u);
    EXPECT_EQ(res.pagesRejected, layout.directory.pageCount());
}

TEST_F(FirmwareTest, ScrubAfterCorruption)
{
    fw->flushDirectGraph(0, layout, g, *feat, *store, *backend);
    flash::Ppa victim = layout.nodes[0].primary.page();
    ASSERT_TRUE(store->corruptBit(victim, 40, 0));
    ScrubReport rep = fw->scrub(layout, g, *feat, *store);
    EXPECT_EQ(rep.errorsFound, 1u);
    EXPECT_EQ(rep.blocksReprogrammed, 1u);
    // The repaired page is byte-identical to the golden encoding.
    std::vector<std::uint8_t> golden(cfg.flash.pageSize);
    dg::encodePageImage(layout, g, *feat, victim, golden);
    auto back = store->read(victim);
    for (std::size_t i = 0; i < golden.size(); ++i)
        ASSERT_EQ(back[i], golden[i]);
}

TEST_F(FirmwareTest, ReclaimMigratesAndRewritesAddresses)
{
    fw->flushDirectGraph(0, layout, g, *feat, *store, *backend);
    auto old_blocks = layout.blocks;
    ReclaimResult r =
        fw->reclaimDirectGraph(1000, layout, g, *feat, *store, *backend);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.blocksMigrated, old_blocks.size());
    // New layout lives in different blocks.
    for (auto nb : r.layout.blocks)
        for (auto ob : old_blocks)
            EXPECT_NE(nb, ob);
    // Old blocks are no longer reserved; new ones are.
    for (auto ob : old_blocks)
        EXPECT_FALSE(fw->ftl().isReserved(ob));
    for (auto nb : r.layout.blocks)
        EXPECT_TRUE(fw->ftl().isReserved(nb));
    // The migrated copy decodes correctly: spot-check node sections
    // through the byte source.
    dg::PageByteSource src(*store, feat->dim());
    for (graph::NodeId v = 0; v < g.numNodes(); v += 37) {
        auto sec = src.fetch(r.layout.nodes[v].primary);
        ASSERT_TRUE(sec.has_value());
        EXPECT_EQ(sec->node, v);
        EXPECT_EQ(sec->totalNeighbors, g.degree(v));
    }
}

TEST_F(FirmwareTest, CoreServiceTimesQueue)
{
    // 4 cores split into 2 issue + 2 completion threads (Fig. 3):
    // a third simultaneous issue queues behind the first.
    auto g1 = fw->coreIssue(0);
    fw->coreIssue(0);
    auto g3 = fw->coreIssue(0);
    EXPECT_EQ(g1.start, 0u);
    EXPECT_EQ(g3.start, g1.end);
    // Completions use their own pool and do not queue behind issues.
    auto c1 = fw->coreComplete(0);
    EXPECT_EQ(c1.start, 0u);
    EXPECT_GT(fw->coreBusyTime(), 0u);
    fw->resetStats();
    EXPECT_EQ(fw->coreBusyTime(), 0u);
}

} // namespace
