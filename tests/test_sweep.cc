/**
 * @file
 * The accepted-configuration sweep (ROADMAP item 8): a few dozen tiny
 * configurations, drawn from a fixed seed, run through
 * platforms::runPlatform at jobs 1 and at jobs 3, and the two metrics
 * JSON snapshots of each must be equal. The draws cover all eight
 * platforms, BG-DG, BG-DGSP and BG-2 arrays of 2–4 devices under hash
 * and range partitions, replication 1–2, a die kill and a device kill,
 * each cache policy, dedupe, uncoalesced secondaries and hops 0–3.
 * Every run also passes the conservation audit, which checked builds
 * additionally run inside PlatformSession::finish().
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "platforms/runner.h"
#include "sim/executor.h"
#include "sim/rng.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::platforms;

/** Configurations the sweep draws. */
constexpr unsigned kConfigs = 48;

struct Config
{
    PlatformConfig platform;
    RunConfig run;
    std::string label;
};

bool
streams(PlatformKind kind)
{
    return kind == PlatformKind::BG_DG || kind == PlatformKind::BG_DGSP ||
           kind == PlatformKind::BG2;
}

/** Draw configuration @p i. The platform cycles through all eight;
 *  in round r = i / 8 a streaming platform runs on one device when
 *  r % 3 == 2 and on an array otherwise, hash-partitioned in even
 *  rounds and range-partitioned in odd ones. The rest comes from
 *  @p rng. */
Config
draw(unsigned i, sim::Pcg32 &rng, const WorkloadBundle &bundle)
{
    const std::size_t round = i / allPlatforms().size();
    const PlatformKind kind = allPlatforms()[i % allPlatforms().size()];
    Config c;
    c.platform = makePlatform(kind);
    c.platform.flags.dedupeNodes = rng.below(3) == 0;
    c.platform.flags.coalesceSecondary = rng.below(4) != 0;
    RunConfig &rc = c.run;
    rc.batchSize = 16;
    rc.batches = 2;
    rc.targetSeed = rng.next();
    TopologyConfig &topo = rc.topology;
    if (streams(kind) && round % 3 != 2) {
        topo.devices = 2 + rng.below(3);
        topo.partition =
            round % 2 ? PartitionPolicy::Range : PartitionPolicy::Hash;
        topo.replication = 1 + rng.below(2);
    }
    switch (rng.below(4)) {
    case 0:
        rc.kills.push_back(
            {rng.below(topo.devices),
             static_cast<int>(rng.below(rc.system.flash.totalDies())),
             sim::microseconds(rng.below(100))});
        break;
    case 1:
        rc.kills.push_back({rng.below(topo.devices), -1,
                            sim::microseconds(rng.below(100))});
        break;
    default:
        break;
    }
    if (const unsigned policy = rng.below(4); policy != 0) {
        rc.cache.capacityMB = 0.25;
        rc.cache.policy = policy == 1   ? cache::CachePolicy::Lru
                          : policy == 2 ? cache::CachePolicy::MsLru
                                        : cache::CachePolicy::Fifo;
        rc.zipfTheta = 0.99;
    }
    gnn::ModelSpec model = bundle.model;
    model.hops = static_cast<std::uint8_t>(rng.below(4));
    rc.model = model;

    std::ostringstream label;
    label << "#" << i << " " << c.platform.name << " devices "
          << topo.devices << " " << partitionPolicyName(topo.partition)
          << " R" << topo.replication << " kills " << rc.kills.size()
          << " cache " << rc.cache.capacityMB << " dedupe "
          << c.platform.flags.dedupeNodes << " coalesce "
          << c.platform.flags.coalesceSecondary << " hops "
          << unsigned{model.hops};
    c.label = label.str();
    return c;
}

class AcceptedConfigSweep : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 600;
        bundle = makeBundle(spec, sys.flash, model).release();
    }

    static void
    TearDownTestSuite()
    {
        delete bundle;
        bundle = nullptr;
        sim::SimExecutor::setDefaultJobs(0);
    }

    /** The metrics JSON snapshot of @p c at @p jobs workers. */
    static std::string
    snapshot(const Config &c, unsigned jobs)
    {
        sim::SimExecutor::setDefaultJobs(jobs);
        sim::MetricRegistry reg;
        const RunResult r = runPlatform(c.platform, c.run, *bundle, &reg);
        EXPECT_EQ(auditTotals(r), "") << c.label << " at jobs " << jobs;
        if (c.run.kills.empty()) {
            EXPECT_TRUE(r.ok) << c.label;
        }
        std::ostringstream json;
        reg.writeJson(json);
        return json.str();
    }

    static WorkloadBundle *bundle;
};

WorkloadBundle *AcceptedConfigSweep::bundle = nullptr;

TEST_F(AcceptedConfigSweep, JobsOneAndThreeWriteTheSameSnapshot)
{
    sim::Pcg32 rng(2024);
    std::set<PlatformKind> platforms;
    std::set<std::string> arrays, policies;
    std::set<unsigned> hops;
    bool replicated = false, die_kill = false, device_kill = false;
    bool dedupe = false, uncoalesced = false;
    for (unsigned i = 0; i < kConfigs; ++i) {
        const Config c = draw(i, rng, *bundle);
        const TopologyConfig &topo = c.run.topology;
        platforms.insert(c.platform.kind);
        if (topo.multi())
            arrays.insert(c.platform.name + " " +
                          partitionPolicyName(topo.partition));
        replicated |= topo.multi() && topo.replication == 2;
        for (const KillEvent &k : c.run.kills)
            (k.die < 0 ? device_kill : die_kill) = true;
        policies.insert(c.run.cache.enabled()
                            ? cache::cachePolicyName(c.run.cache.policy)
                            : "none");
        dedupe |= c.platform.flags.dedupeNodes;
        uncoalesced |= !c.platform.flags.coalesceSecondary;
        hops.insert(c.run.model->hops);

        EXPECT_EQ(snapshot(c, 1), snapshot(c, 3)) << c.label;
    }
    // The fixed seed must keep covering every dimension it promises.
    EXPECT_EQ(platforms.size(), allPlatforms().size());
    EXPECT_EQ(arrays.size(), 6u) << "BG-DG, BG-DGSP and BG-2 arrays "
                                    "under hash and range";
    EXPECT_TRUE(replicated);
    EXPECT_TRUE(die_kill);
    EXPECT_TRUE(device_kill);
    EXPECT_EQ(policies.size(), 4u) << "none, lru, mslru and fifo";
    EXPECT_TRUE(dedupe);
    EXPECT_TRUE(uncoalesced);
    EXPECT_EQ(hops.size(), 4u) << "hops 0-3";
}

} // namespace
