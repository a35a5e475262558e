/**
 * @file
 * Tests for the channel-level command router (§V-B) and the §VIII
 * computational storage array: routing/crossbar accounting, bounded
 * dispatch queues, subgraph equivalence between a single BG-2 device
 * and any array size (keyed sampling), and scaling behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "engines/command_router.h"
#include "platforms/report.h"
#include "platforms/runner.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::engines;

flash::FlashConfig
smallFlash()
{
    flash::FlashConfig cfg;
    cfg.channels = 4;
    cfg.diesPerChannel = 2;
    cfg.blocksPerPlane = 16;
    cfg.pagesPerBlock = 8;
    return cfg;
}

TEST(CommandRouter, RoutesWithCrossbarLatency)
{
    ssd::EngineConfig ecfg;
    flash::FlashConfig cfg = smallFlash();
    CommandRouter router(ecfg, cfg);
    // Page on channel 0 (block 0); command from channel 2.
    sim::Tick arrived = router.route(100, 2, 0);
    EXPECT_EQ(arrived, 100 + ecfg.crossbarHop);
    EXPECT_EQ(router.stats().routed, 1u);
    EXPECT_EQ(router.stats().crossChannel, 1u);
    // Same-channel command does not count as cross-channel.
    router.route(100, 0, 0);
    EXPECT_EQ(router.stats().crossChannel, 1u);
}

TEST(CommandRouter, ParseCostsRouterParse)
{
    ssd::EngineConfig ecfg;
    CommandRouter router(ecfg, smallFlash());
    EXPECT_EQ(router.parse(500), 500 + ecfg.routerParse);
    EXPECT_EQ(router.stats().parsed, 1u);
}

TEST(CommandRouter, BoundedQueueBackpressures)
{
    ssd::EngineConfig ecfg;
    flash::FlashConfig cfg = smallFlash();
    CommandRouter router(ecfg, cfg, /*depth=*/2);
    // Fill die 0's queue with two never-completing commands.
    sim::Tick a = router.route(0, 0, 0);
    router.bindCompletion(0, 1000);
    sim::Tick b = router.route(0, 0, 0);
    router.bindCompletion(0, 2000);
    EXPECT_EQ(a, ecfg.crossbarHop);
    EXPECT_EQ(b, ecfg.crossbarHop);
    // Third command must wait for the first slot to drain (t=1000).
    sim::Tick c = router.route(0, 0, 0);
    EXPECT_GE(c, 1000u);
    EXPECT_EQ(router.stats().peakQueue, 2u);
}

TEST(CommandRouter, QueueDrainsByCompletionTime)
{
    ssd::EngineConfig ecfg;
    CommandRouter router(ecfg, smallFlash(), 2);
    router.route(0, 0, 0);
    router.bindCompletion(0, 50);
    router.route(0, 0, 0);
    router.bindCompletion(0, 60);
    // At t=100 both slots have drained: no wait.
    sim::Tick c = router.route(100, 0, 0);
    EXPECT_EQ(c, 100 + ecfg.crossbarHop);
}

// --------------------------------------------------------------
// Array tests.
// --------------------------------------------------------------

struct ArrayRig
{
    std::unique_ptr<platforms::WorkloadBundle> bundle;
    platforms::RunConfig rc;

    ArrayRig()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 4000;
        bundle = platforms::makeBundle(spec, sys.flash, model);
        rc.batchSize = 32;
        rc.batches = 2;
    }

    /** BG-2 on the array topology @p topo. */
    platforms::RunResult
    run(const platforms::TopologyConfig &topo,
        sim::MetricRegistry *reg = nullptr) const
    {
        platforms::RunConfig r = rc;
        r.topology = topo;
        return platforms::runPlatform(
            platforms::makePlatform(platforms::PlatformKind::BG2), r,
            *bundle, reg);
    }
};

TEST(Array, PartitioningDoesNotChangeSampling)
{
    // Keyed sampling: the array samples the exact same subgraph
    // regardless of how the graph is partitioned.
    ArrayRig rig;
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
    platforms::TopologyConfig one;
    one.devices = 1;
    platforms::TopologyConfig four;
    four.devices = 4;
    auto a = rig.run(one);
    auto b = rig.run(four);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.lastSubgraph.size(), b.lastSubgraph.size());
    EXPECT_EQ(agg(a.lastSubgraph), agg(b.lastSubgraph));
    EXPECT_GT(b.crossDevice, 0u);
    EXPECT_EQ(a.commands, b.commands);
}

TEST(Array, ThroughputScalesWithDevices)
{
    ArrayRig rig;
    rig.rc.batchSize = 128;
    double prev = 0;
    for (unsigned n : {1u, 2u, 4u}) {
        platforms::TopologyConfig topo;
        topo.devices = n;
        auto r = rig.run(topo);
        ASSERT_TRUE(r.ok);
        EXPECT_GT(r.throughput, prev);
        prev = r.throughput;
    }
}

TEST(Array, CrossDeviceFractionGrowsWithDevices)
{
    ArrayRig rig;
    platforms::TopologyConfig two;
    two.devices = 2;
    platforms::TopologyConfig eight;
    eight.devices = 8;
    auto a = rig.run(two);
    auto b = rig.run(eight);
    // Random partitioning: expect ~1/2 vs ~7/8 of children remote.
    EXPECT_GT(b.crossFraction, a.crossFraction);
    EXPECT_NEAR(a.crossFraction, 0.5, 0.15);
    EXPECT_GT(b.crossFraction, 0.75);
}

TEST(Array, SlowP2pLinkHurtsScaling)
{
    ArrayRig rig;
    platforms::TopologyConfig fast;
    fast.devices = 4;
    platforms::TopologyConfig slow = fast;
    slow.p2pMBps = 10.0; // Pathologically slow link.
    slow.p2pLatency = sim::microseconds(100);
    auto f = rig.run(fast);
    auto s = rig.run(slow);
    EXPECT_GT(f.throughput, 1.5 * s.throughput);
}

TEST(Array, ZeroCommandsLeaveCrossFractionZero)
{
    // A run with no batches executes no command; the cross-device
    // fraction must be an exact 0, not a 0/0 NaN.
    ArrayRig rig;
    rig.rc.batches = 0;
    platforms::TopologyConfig topo;
    topo.devices = 2;
    auto r = rig.run(topo);
    EXPECT_EQ(r.commands, 0u);
    EXPECT_EQ(r.crossDevice, 0u);
    EXPECT_EQ(r.crossFraction, 0.0);
    EXPECT_FALSE(std::isnan(r.crossFraction));
}

TEST(Array, PerDeviceCommandsSumToTotal)
{
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 4;
    auto r = rig.run(topo);
    ASSERT_EQ(r.perDevice.size(), 4u);
    std::uint64_t sum = 0;
    for (const engines::DeviceTally &t : r.perDevice) {
        EXPECT_GT(t.commands, 0u);
        sum += t.commands;
    }
    EXPECT_EQ(sum, r.commands);
}

TEST(Array, MultiDeviceRunExportsPerDeviceMetrics)
{
    ArrayRig rig;
    sim::MetricRegistry reg;
    platforms::TopologyConfig topo;
    topo.devices = 4;
    auto r = rig.run(topo, &reg);
    ASSERT_TRUE(r.ok);
    EXPECT_NE(reg.findGauge("array.devices"), nullptr);
    EXPECT_NE(reg.findCounter("array.cross_device"), nullptr);
    EXPECT_NE(reg.findCounter("array.p2p.bytes"), nullptr);
    for (unsigned d = 0; d < 4; ++d) {
        std::string p = "array.dev" + std::to_string(d) + ".";
        EXPECT_NE(reg.findCounter(p + "commands"), nullptr) << p;
        EXPECT_NE(reg.findCounter(p + "flash_reads"), nullptr) << p;
        EXPECT_NE(reg.findCounter(p + "flash.reads"), nullptr) << p;
        EXPECT_NE(reg.findCounter(p + "p2p.out_forwards"), nullptr)
            << p;
    }
}

TEST(Array, PartitionPolicyDoesNotChangeSubgraphs)
{
    // Keyed sampling again, now across partition policies: ownership
    // decides only where a command executes, never what it samples.
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 4;
    std::map<std::string, std::size_t> sizes;
    std::uint64_t commands = 0;
    for (auto pol :
         {platforms::PartitionPolicy::Hash,
          platforms::PartitionPolicy::Range,
          platforms::PartitionPolicy::Balanced}) {
        topo.partition = pol;
        auto r = rig.run(topo);
        ASSERT_TRUE(r.ok);
        sizes[platforms::partitionPolicyName(pol)] =
            r.lastSubgraph.size();
        if (commands == 0)
            commands = r.commands;
        EXPECT_EQ(r.commands, commands);
    }
    EXPECT_EQ(sizes["hash"], sizes["range"]);
    EXPECT_EQ(sizes["hash"], sizes["balanced"]);
}

} // namespace
