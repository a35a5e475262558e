/**
 * @file
 * Platform-level tests: preset wiring, runner statistics, and the
 * paper's headline ordering invariants (Fig. 14's BG-X ladder, the
 * prior-work baselines, pipelining, utilization traces).
 *
 * These use a reduced workload so the whole suite stays fast; the
 * bench binaries run the full configurations.
 */

#include <gtest/gtest.h>

#include "platforms/runner.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::platforms;

class PlatformRig : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 6000;
        bundle = makeBundle(spec, sys.flash, model).release();
    }

    static void
    TearDownTestSuite()
    {
        delete bundle;
        bundle = nullptr;
    }

    RunConfig
    runCfg() const
    {
        RunConfig rc;
        rc.batchSize = 32;
        rc.batches = 2;
        return rc;
    }

    static WorkloadBundle *bundle;
};

WorkloadBundle *PlatformRig::bundle = nullptr;

TEST(PlatformPresets, FeatureMatrix)
{
    using engines::SamplingLoc;
    auto cc = makePlatform(PlatformKind::CC);
    EXPECT_EQ(cc.flags.sampling, SamplingLoc::Host);
    EXPECT_FALSE(cc.flags.directGraph);
    EXPECT_TRUE(cc.flags.featuresViaHost);

    auto glist = makePlatform(PlatformKind::GLIST);
    EXPECT_EQ(glist.flags.sampling, SamplingLoc::Host);
    EXPECT_FALSE(glist.flags.featuresViaHost);

    auto smart = makePlatform(PlatformKind::SmartSage);
    EXPECT_EQ(smart.flags.sampling, SamplingLoc::Firmware);
    EXPECT_TRUE(smart.flags.featuresViaHost);

    auto bg1 = makePlatform(PlatformKind::BG1);
    EXPECT_EQ(bg1.flags.sampling, SamplingLoc::Firmware);
    EXPECT_FALSE(bg1.flags.directGraph);
    EXPECT_FALSE(bg1.flags.featuresViaHost);

    auto dg = makePlatform(PlatformKind::BG_DG);
    EXPECT_TRUE(dg.flags.directGraph);
    EXPECT_FALSE(dg.flags.hwRouter);

    auto sp = makePlatform(PlatformKind::BG_SP);
    EXPECT_EQ(sp.flags.sampling, SamplingLoc::Die);
    EXPECT_FALSE(sp.flags.directGraph);

    auto dgsp = makePlatform(PlatformKind::BG_DGSP);
    EXPECT_EQ(dgsp.flags.sampling, SamplingLoc::Die);
    EXPECT_TRUE(dgsp.flags.directGraph);
    EXPECT_FALSE(dgsp.flags.hwRouter);

    auto bg2 = makePlatform(PlatformKind::BG2);
    EXPECT_TRUE(bg2.flags.hwRouter);
    EXPECT_TRUE(bg2.flags.directGraph);
    EXPECT_EQ(allPlatforms().size(), 8u);
    EXPECT_EQ(bgLadder().size(), 5u);
    EXPECT_EQ(platformName(PlatformKind::BG_DGSP), "BG-DGSP");
}

TEST_F(PlatformRig, RunProducesConsistentStats)
{
    RunResult r = runPlatform(makePlatform(PlatformKind::BG2), runCfg(),
                              *bundle);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.targets, 64u);
    EXPECT_GT(r.totalTime, 0u);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GE(r.totalTime, r.prepTime);
    EXPECT_EQ(r.cmdStats.lifetime.count(), r.tally.flashReads);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.avgPowerW, 0.0);
    // Subgraph of the last batch has full fanout shape.
    EXPECT_EQ(r.lastSubgraph.size(),
              32u * bundle->model.subgraphNodes());
    ASSERT_EQ(r.hops.size(), 4u);
    for (const auto &h : r.hops)
        EXPECT_LT(h.first, h.last);
}

TEST_F(PlatformRig, Deterministic)
{
    RunResult a = runPlatform(makePlatform(PlatformKind::BG_DGSP),
                              runCfg(), *bundle);
    RunResult b = runPlatform(makePlatform(PlatformKind::BG_DGSP),
                              runCfg(), *bundle);
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.tally.flashReads, b.tally.flashReads);
    EXPECT_EQ(a.tally.channelBytes, b.tally.channelBytes);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST_F(PlatformRig, Fig14LadderOrdering)
{
    // The paper's headline result: each BG-X extension improves
    // throughput, and every ISC design beats the CPU-centric
    // baseline (Fig. 14).
    RunConfig rc = runCfg();
    double cc = runPlatform(makePlatform(PlatformKind::CC), rc, *bundle)
                    .throughput;
    double bg1 =
        runPlatform(makePlatform(PlatformKind::BG1), rc, *bundle)
            .throughput;
    double dg =
        runPlatform(makePlatform(PlatformKind::BG_DG), rc, *bundle)
            .throughput;
    double sp =
        runPlatform(makePlatform(PlatformKind::BG_SP), rc, *bundle)
            .throughput;
    double dgsp =
        runPlatform(makePlatform(PlatformKind::BG_DGSP), rc, *bundle)
            .throughput;
    double bg2 =
        runPlatform(makePlatform(PlatformKind::BG2), rc, *bundle)
            .throughput;

    EXPECT_GT(bg1, cc);
    EXPECT_GT(dg, bg1);
    EXPECT_GT(sp, bg1);
    EXPECT_GT(dgsp, sp);
    EXPECT_GT(dgsp, dg);
    EXPECT_GT(bg2, dgsp);
    // The full-system win is at least several-fold.
    EXPECT_GT(bg2 / cc, 4.0);
}

TEST_F(PlatformRig, PriorWorkBeatsBaseline)
{
    RunConfig rc = runCfg();
    double cc = runPlatform(makePlatform(PlatformKind::CC), rc, *bundle)
                    .throughput;
    double smart =
        runPlatform(makePlatform(PlatformKind::SmartSage), rc, *bundle)
            .throughput;
    double glist =
        runPlatform(makePlatform(PlatformKind::GLIST), rc, *bundle)
            .throughput;
    EXPECT_GT(smart, cc);
    EXPECT_GT(glist, cc);
    // §VII-B: sampling offload helps more than feature offload.
    EXPECT_GT(smart, glist);
}

TEST_F(PlatformRig, PcieTrafficShape)
{
    RunConfig rc = runCfg();
    auto cc = runPlatform(makePlatform(PlatformKind::CC), rc, *bundle);
    auto bg2 = runPlatform(makePlatform(PlatformKind::BG2), rc, *bundle);
    // The CC baseline moves orders of magnitude more bytes over PCIe.
    EXPECT_GT(cc.tally.pcieBytes, 100u * std::max<std::uint64_t>(
                                             1, bg2.tally.pcieBytes));
    // And BG platforms keep all page traffic inside the SSD.
    EXPECT_EQ(bg2.tally.pcieBytes, 0u);
}

TEST_F(PlatformRig, DieSamplerCutsChannelTraffic)
{
    RunConfig rc = runCfg();
    auto bg1 = runPlatform(makePlatform(PlatformKind::BG1), rc, *bundle);
    auto sp = runPlatform(makePlatform(PlatformKind::BG_SP), rc, *bundle);
    // Challenge 2: page-granular transfer wastes channel bandwidth;
    // die-level sampling transfers only result frames.
    EXPECT_GT(bg1.tally.channelBytes, 5 * sp.tally.channelBytes);
}

TEST_F(PlatformRig, EnergyBreakdownShape)
{
    RunConfig rc = runCfg();
    auto cc = runPlatform(makePlatform(PlatformKind::CC), rc, *bundle);
    auto bg2 = runPlatform(makePlatform(PlatformKind::BG2), rc, *bundle);
    // Fig. 19: CC spends a large share of energy moving data off
    // storage; BG-2 spends none there.
    EXPECT_GT(cc.energy.offStorageShare(), 0.3);
    EXPECT_LT(bg2.energy.offStorageShare(), 0.05);
    // Energy per target improves on BG-2.
    double cc_per = cc.energy.total() / static_cast<double>(cc.targets);
    double bg2_per =
        bg2.energy.total() / static_cast<double>(bg2.targets);
    EXPECT_GT(cc_per, 2.0 * bg2_per);
}

TEST_F(PlatformRig, UtilizationTraces)
{
    RunConfig rc = runCfg();
    rc.traceUtilization = true;
    rc.utilizationBuckets = 24;
    auto r = runPlatform(makePlatform(PlatformKind::BG2), rc, *bundle);
    ASSERT_EQ(r.dieSeries.size(), 24u);
    ASSERT_EQ(r.channelSeries.size(), 24u);
    double max_active = 0;
    for (double v : r.dieSeries) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 128.0);
        max_active = std::max(max_active, v);
    }
    EXPECT_GT(max_active, 0.0);
}

TEST_F(PlatformRig, TraditionalSsdNarrowsBg2Gap)
{
    // §VII-E: with 20 us flash, BG-DGSP ~= BG-2 (firmware suffices).
    RunConfig rc = runCfg();
    rc.system.flash = rc.system.flash.asTraditional();
    auto dgsp =
        runPlatform(makePlatform(PlatformKind::BG_DGSP), rc, *bundle);
    auto bg2 = runPlatform(makePlatform(PlatformKind::BG2), rc, *bundle);
    double gap = bg2.throughput / dgsp.throughput;
    EXPECT_LT(gap, 1.25);
    EXPECT_GE(gap, 0.95);
}

TEST_F(PlatformRig, BatchSizeScalesBg2)
{
    // Fig. 18a: BG-2 keeps scaling with batch size.
    RunConfig small = runCfg();
    small.batchSize = 16;
    RunConfig big = runCfg();
    big.batchSize = 128;
    auto a = runPlatform(makePlatform(PlatformKind::BG2), small, *bundle);
    auto b = runPlatform(makePlatform(PlatformKind::BG2), big, *bundle);
    EXPECT_GT(b.throughput, a.throughput);
}

TEST_F(PlatformRig, MoreCoresHelpFirmwareBoundNotBg2)
{
    // Fig. 18c: BG-DGSP benefits from more cores; BG-2 does not care.
    RunConfig one = runCfg();
    one.system.controller.cores = 1;
    RunConfig eight = runCfg();
    eight.system.controller.cores = 8;
    auto dgsp1 =
        runPlatform(makePlatform(PlatformKind::BG_DGSP), one, *bundle);
    auto dgsp8 =
        runPlatform(makePlatform(PlatformKind::BG_DGSP), eight, *bundle);
    EXPECT_GT(dgsp8.throughput, 1.2 * dgsp1.throughput);
    auto bg2_1 = runPlatform(makePlatform(PlatformKind::BG2), one, *bundle);
    auto bg2_8 =
        runPlatform(makePlatform(PlatformKind::BG2), eight, *bundle);
    EXPECT_NEAR(bg2_8.throughput / bg2_1.throughput, 1.0, 0.05);
}

} // namespace

#include <sstream>

#include "platforms/device_context.h"
#include "platforms/report.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::platforms;

TEST(Report, CsvRowRoundTrips)
{
    gnn::ModelConfig model;
    ssd::SystemConfig sys;
    auto spec = graph::workload("OGBN");
    spec.simNodes = 2000;
    auto bundle = makeBundle(spec, sys.flash, model);
    RunConfig rc;
    rc.batchSize = 16;
    rc.batches = 1;
    rc.traceUtilization = true;
    rc.utilizationBuckets = 8;
    auto r = runPlatform(makePlatform(PlatformKind::BG2), rc, *bundle);

    std::ostringstream header, row, series;
    writeCsvHeader(header);
    writeCsvRow(row, r);
    writeSeriesCsv(series, r);

    // Same number of columns in header and row.
    auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header.str()), count(row.str()));
    // The row carries the platform/workload and the throughput.
    EXPECT_NE(row.str().find("BG-2,OGBN,1,16,"), std::string::npos);
    // Two series rows (dies + channels), 8 samples each.
    std::string series_str = series.str();
    EXPECT_EQ(std::count(series_str.begin(), series_str.end(), '\n'),
              2);
    EXPECT_EQ(count(series_str), 2 * (1 + 8));
    // Human summary mentions the essentials.
    std::string sum = summaryLine(r);
    EXPECT_NE(sum.find("BG-2"), std::string::npos);
    EXPECT_NE(sum.find("targets/s"), std::string::npos);
}

TEST(Report, ConfigBroadcastPrecedesFirstBatch)
{
    gnn::ModelConfig model;
    ssd::SystemConfig sys;
    auto spec = graph::workload("OGBN");
    spec.simNodes = 1500;
    auto bundle = makeBundle(spec, sys.flash, model);

    auto p = makePlatform(PlatformKind::BG2);
    DeviceContext dev(p, sys, {}, bundle->model, bundle->layout.blocks, 0,
                      false);
    engines::GnnEngine engine({dev.port()}, bundle->layout, bundle->graph,
                              bundle->model, p.flags, *bundle->source);
    EXPECT_EQ(engine.configuredAt(), 0u);

    std::vector<graph::NodeId> targets = {1, 2};
    engines::PrepResult pr = engine.run(0, 0, targets);
    // §VI-C: the global GNN configuration broadcast completes before
    // any sampling command is created.
    EXPECT_GT(engine.configuredAt(), 0u);
    EXPECT_GE(pr.hops[0].first, engine.configuredAt());

    // A second batch reuses the configuration (no re-broadcast).
    sim::Tick configured = engine.configuredAt();
    engine.run(pr.finish, 1, targets);
    EXPECT_EQ(engine.configuredAt(), configured);
}

} // namespace
