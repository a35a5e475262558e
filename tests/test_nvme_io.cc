/**
 * @file
 * Tests for the NVMe queue-pair model and the regular block-I/O path
 * (§II-B2, §VI-G): queue-depth pipelining, functional read/write
 * round trips through the FTL with out-of-place updates, garbage
 * collection, acceleration-mode deferral, and DirectGraph isolation.
 */

#include <gtest/gtest.h>

#include "ssd/io_path.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::ssd;

SystemConfig
smallSystem()
{
    SystemConfig cfg;
    cfg.flash.channels = 4;
    cfg.flash.diesPerChannel = 2;
    cfg.flash.blocksPerPlane = 64;
    cfg.flash.pagesPerBlock = 8;
    return cfg;
}

TEST(NvmeQueue, SingleCommandLatency)
{
    NvmeQueueConfig qc;
    NvmeQueuePair q(qc);
    NvmeCommand cmd;
    cmd.tag = 7;
    NvmeCompletion c = q.submit(0, cmd, sim::microseconds(10));
    EXPECT_EQ(c.tag, 7u);
    EXPECT_EQ(c.submitted, qc.submitCost);
    EXPECT_EQ(c.fetched, c.submitted + qc.fetchCost);
    EXPECT_EQ(c.completed, c.fetched + sim::microseconds(10) +
                               qc.completeCost);
    EXPECT_EQ(c.latency(), c.completed - c.submitted);
    EXPECT_EQ(q.completedCount(), 1u);
    EXPECT_EQ(q.meanLatency(), c.latency());
}

TEST(NvmeQueue, PipelinesUpToQueueDepth)
{
    NvmeQueueConfig qc;
    qc.queueDepth = 4;
    NvmeQueuePair q(qc);
    // 8 commands of 10 us device time: with QD 4 they run in two
    // waves, not fully serialized.
    sim::Tick last = 0;
    for (int i = 0; i < 8; ++i) {
        auto c = q.submit(0, NvmeCommand{}, sim::microseconds(10));
        last = std::max(last, c.completed);
    }
    // Serial would be ~80 us of device time; QD-4 pipelining cuts
    // that roughly in half.
    EXPECT_LT(last, sim::microseconds(40));
    EXPECT_GT(last, sim::microseconds(20));
}

TEST(NvmeQueue, DepthOneSerializes)
{
    NvmeQueueConfig qc;
    qc.queueDepth = 1;
    NvmeQueuePair q(qc);
    auto a = q.submit(0, NvmeCommand{}, sim::microseconds(5));
    auto b = q.submit(0, NvmeCommand{}, sim::microseconds(5));
    EXPECT_GE(b.completed, a.completed + sim::microseconds(5));
}

class IoPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg = smallSystem();
        fw = std::make_unique<Firmware>(cfg);
        backend = std::make_unique<flash::FlashBackend>(cfg.flash);
        store = std::make_unique<flash::PageStore>(cfg.flash);
        io = std::make_unique<IoPath>(*fw, *backend, *store);
        data.assign(cfg.flash.pageSize, 0);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(i * 7);
    }

    SystemConfig cfg;
    std::unique_ptr<Firmware> fw;
    std::unique_ptr<flash::FlashBackend> backend;
    std::unique_ptr<flash::PageStore> store;
    std::unique_ptr<IoPath> io;
    std::vector<std::uint8_t> data;
};

TEST_F(IoPathTest, WriteReadRoundTrip)
{
    IoResult w = io->hostWrite(0, 42, data);
    ASSERT_TRUE(w.ok);
    EXPECT_GT(w.nvme.completed, 0u);

    std::vector<std::uint8_t> out(cfg.flash.pageSize, 0);
    IoResult r = io->hostRead(w.nvme.completed, 42, out);
    ASSERT_TRUE(r.ok);
    for (std::size_t i = 0; i < data.size(); ++i)
        ASSERT_EQ(out[i], data[i]);
}

TEST_F(IoPathTest, ReadOfUnmappedLpaFails)
{
    std::vector<std::uint8_t> out(cfg.flash.pageSize);
    EXPECT_FALSE(io->hostRead(0, 999, out).ok);
}

TEST_F(IoPathTest, OverwriteGoesOutOfPlace)
{
    ASSERT_TRUE(io->hostWrite(0, 5, data).ok);
    auto first = fw->ftl().translate(5, false);
    ASSERT_TRUE(first.has_value());

    std::vector<std::uint8_t> data2(cfg.flash.pageSize, 0xEE);
    ASSERT_TRUE(io->hostWrite(1000, 5, data2).ok);
    auto second = fw->ftl().translate(5, false);
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(*first, *second); // Remapped, not overwritten.
    // Old page invalid, new valid.
    EXPECT_GE(fw->ftl().invalidPages(
                  store->addressCodec().blockOf(*first)),
              1u);
    // Reads return the new content.
    std::vector<std::uint8_t> out(cfg.flash.pageSize);
    ASSERT_TRUE(io->hostRead(2000, 5, out).ok);
    EXPECT_EQ(out[0], 0xEE);
}

TEST_F(IoPathTest, GarbageCollectionReclaimsDeadBlocks)
{
    // Fill one block's worth of LPAs, then overwrite them all so the
    // original block becomes fully invalid.
    unsigned per_block = cfg.flash.pagesPerBlock;
    for (Lpa l = 0; l < per_block; ++l)
        ASSERT_TRUE(io->hostWrite(0, l, data).ok);
    for (Lpa l = 0; l < per_block; ++l)
        ASSERT_TRUE(io->hostWrite(10000, l, data).ok);
    auto victims = fw->ftl().fullyInvalidBlocks();
    ASSERT_FALSE(victims.empty());
    std::uint64_t erased = io->garbageCollect(20000);
    EXPECT_EQ(erased, victims.size());
    EXPECT_TRUE(fw->ftl().fullyInvalidBlocks().empty());
    // Data still readable after GC.
    std::vector<std::uint8_t> out(cfg.flash.pageSize);
    for (Lpa l = 0; l < per_block; ++l)
        ASSERT_TRUE(io->hostRead(30000, l, out).ok) << l;
}

TEST_F(IoPathTest, AccelerationModeDefersRegularIo)
{
    // §VI-G: during a mini-batch, regular requests wait for its end.
    io->enterAccelerationMode(sim::microseconds(500));
    EXPECT_TRUE(io->inAccelerationMode(0));
    IoResult w = io->hostWrite(sim::microseconds(100), 3, data);
    ASSERT_TRUE(w.ok);
    EXPECT_EQ(w.deferredBy, sim::microseconds(400));
    EXPECT_GE(w.nvme.submitted, sim::microseconds(500));
    EXPECT_EQ(io->deferredCount(), 1u);
    // After the batch, requests run immediately.
    IoResult w2 = io->hostWrite(sim::microseconds(600), 4, data);
    EXPECT_EQ(w2.deferredBy, 0u);
    EXPECT_FALSE(io->inAccelerationMode(sim::microseconds(600)));
}

TEST_F(IoPathTest, RegularWritesAvoidReservedBlocks)
{
    auto reserved = fw->ftl().reserveBlocks(8);
    ASSERT_EQ(reserved.size(), 8u);
    for (Lpa l = 0; l < 100; ++l) {
        IoResult w = io->hostWrite(0, l, data);
        ASSERT_TRUE(w.ok);
        auto ppa = fw->ftl().translate(l, false);
        ASSERT_TRUE(ppa.has_value());
        EXPECT_FALSE(fw->ftl().ppaReserved(*ppa)) << l;
    }
}

TEST_F(IoPathTest, CorruptPageSurfacesAsReadError)
{
    ASSERT_TRUE(io->hostWrite(0, 9, data).ok);
    auto ppa = fw->ftl().translate(9, false);
    ASSERT_TRUE(ppa.has_value());
    store->corruptBit(*ppa, 123, 2);
    std::vector<std::uint8_t> out(cfg.flash.pageSize);
    // ECC detects the flip; the model surfaces an uncorrectable read.
    EXPECT_FALSE(io->hostRead(1000, 9, out).ok);
}

} // namespace

#include "directgraph/builder.h"
#include "graph/generator.h"
#include "ssd/host_interface.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::ssd;

TEST(HostInterface, VendorCommandFlow)
{
    SystemConfig cfg;
    cfg.flash.channels = 4;
    cfg.flash.diesPerChannel = 2;
    cfg.flash.blocksPerPlane = 64;
    cfg.flash.pagesPerBlock = 16;
    Firmware fw(cfg);
    flash::FlashBackend backend(cfg.flash);
    flash::PageStore store(cfg.flash);
    HostInterface host(fw);

    // 1. GetBlockList reserves + times the fetch.
    NvmeCompletion c1;
    auto blocks = host.getBlockList(0, 32, &c1);
    ASSERT_EQ(blocks.size(), 32u);
    EXPECT_GT(c1.completed, c1.submitted);
    for (auto b : blocks)
        EXPECT_TRUE(fw.ftl().isReserved(b));

    // 2. SetGnnConfig records the parameters.
    flash::GnnGlobalConfig gc;
    gc.hops = 2;
    gc.fanout = 5;
    gc.featureDim = 64;
    auto c2 = host.setGnnConfig(c1.completed, gc);
    EXPECT_GT(c2.completed, c1.completed);
    EXPECT_EQ(host.gnnConfig().fanout, 5);

    // 3. FlushDirectGraph programs verified pages through the queue.
    graph::Graph g = graph::generateRing(200, 8);
    graph::FeatureTable feat(64, 1);
    auto layout = dg::buildLayout(g, feat, cfg.flash, blocks);
    FlushResult flush = host.flushDirectGraph(c2.completed, layout, g,
                                              feat, store, backend);
    ASSERT_TRUE(flush.ok);
    EXPECT_EQ(flush.pagesWritten, layout.directory.pageCount());
    EXPECT_GT(flush.finish, c2.completed);

    // The queue pair saw every vendor command.
    EXPECT_EQ(host.nvme().completedCount(),
              2u + layout.directory.pageCount());
}

} // namespace
