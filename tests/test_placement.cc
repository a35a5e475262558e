/**
 * @file
 * Tests for the replica-aware placement layer and health-aware fault
 * routing (DESIGN.md §17): chained-declustered replica sets are
 * distinct and clamp correctly, replication = 1 is byte-identical to
 * the historical single-owner Partition, and a replicated array run
 * with a device killed produces byte-identical fingerprints across
 * worker counts — the determinism property extended to faulted runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "graph/dataset.h"
#include "platforms/partition.h"
#include "platforms/report.h"
#include "platforms/runner.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;
using platforms::Partition;
using platforms::PartitionPolicy;
using platforms::Placement;

graph::Graph
testGraph(graph::NodeId nodes = 1500)
{
    auto spec = graph::workload("amazon");
    spec.simNodes = nodes;
    return spec.makeGraph();
}

const std::vector<PartitionPolicy> kPolicies = {
    PartitionPolicy::Hash, PartitionPolicy::Range,
    PartitionPolicy::Balanced};

// ==================================================================
// Placement: replica structure.
// ==================================================================

TEST(Placement, ReplicasDistinctAndChained)
{
    auto g = testGraph();
    for (PartitionPolicy pol : kPolicies) {
        for (unsigned r : {2u, 3u}) {
            Placement pl = Placement::build(g, pol, 4, r);
            Partition pa = Partition::build(g, pol, 4);
            ASSERT_EQ(pl.replication(), r);
            for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
                std::vector<unsigned> reps = pl.replicasOf(v);
                ASSERT_EQ(reps.size(), r);
                // Replica 0 is the policy-assigned primary.
                ASSERT_EQ(reps[0], pa.ownerOf(v));
                ASSERT_EQ(reps[0], pl.primaryOf(v));
                std::set<unsigned> distinct(reps.begin(), reps.end());
                ASSERT_EQ(distinct.size(), r) << "node " << v;
                for (unsigned k = 0; k < r; ++k)
                    ASSERT_EQ(reps[k], (pa.ownerOf(v) + k) % 4u);
            }
        }
    }
}

TEST(Placement, ReplicationClampsToDeviceCount)
{
    auto g = testGraph(400);
    // 0 clamps up to 1; anything beyond the device count clamps down.
    EXPECT_EQ(
        Placement::build(g, PartitionPolicy::Hash, 4, 0).replication(),
        1u);
    EXPECT_EQ(
        Placement::build(g, PartitionPolicy::Hash, 4, 99).replication(),
        4u);
}

TEST(Placement, SingleDeviceIsDegenerate)
{
    auto g = testGraph(400);
    Placement pl = Placement::build(g, PartitionPolicy::Hash, 1, 3);
    EXPECT_EQ(pl.replication(), 1u);
    EXPECT_TRUE(pl.table().empty());
    EXPECT_EQ(pl.primaryOf(0), 0u);
    std::vector<unsigned> want = {0};
    EXPECT_EQ(pl.replicasOf(g.numNodes() - 1), want);
}

// ==================================================================
// Placement: replication = 1 is the historical Partition.
// ==================================================================

TEST(Placement, ReplicationOneMatchesPartitionByteForByte)
{
    auto g = testGraph();
    for (PartitionPolicy pol : kPolicies) {
        Placement pl = Placement::build(g, pol, 4, 1);
        Partition pa = Partition::build(g, pol, 4);
        // The engine routes off table(); identical tables mean the
        // degenerate placement routes byte-identically.
        EXPECT_EQ(pl.table(), pa.table())
            << platforms::partitionPolicyName(pol);
        EXPECT_EQ(pl.degreeSpread(), pa.degreeSpread());
        for (unsigned d = 0; d < 4; ++d) {
            EXPECT_EQ(pl.nodesOn(d), pa.nodesOn(d));
            EXPECT_EQ(pl.degreeOn(d), pa.degreeOn(d));
        }
    }
}

// ==================================================================
// Faulted array runs: byte-identical across worker counts.
// ==================================================================

struct FaultRig
{
    std::unique_ptr<platforms::WorkloadBundle> bundle;
    platforms::RunConfig rc;

    FaultRig()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 4000;
        bundle = platforms::makeBundle(spec, sys.flash, model);
        rc.batchSize = 32;
        rc.batches = 2;
    }

    ~FaultRig() { sim::SimExecutor::setDefaultJobs(0); }

    struct Fingerprint
    {
        std::string json, csv, trace;
        std::uint64_t fallbacks = 0;
        bool ok = false;

        bool
        operator==(const Fingerprint &o) const
        {
            return json == o.json && csv == o.csv &&
                   trace == o.trace && fallbacks == o.fallbacks &&
                   ok == o.ok;
        }
    };

    Fingerprint
    run(const platforms::TopologyConfig &topo, unsigned jobs)
    {
        sim::SimExecutor::setDefaultJobs(jobs);
        sim::TraceSink sink;
        platforms::RunConfig traced = rc;
        traced.traceSink = &sink;
        traced.topology = topo;
        sim::MetricRegistry reg;
        auto r = platforms::runPlatform(
            platforms::makePlatform(platforms::PlatformKind::BG2), traced,
            *bundle, &reg);
        Fingerprint fp;
        fp.ok = r.ok;
        fp.fallbacks = r.replicaFallbacks;
        std::ostringstream json, csv, trace;
        reg.writeJson(json);
        platforms::writeCsvRow(csv, r);
        sink.write(trace);
        fp.json = json.str();
        fp.csv = csv.str();
        fp.trace = trace.str();
        return fp;
    }
};

TEST(KillSpec, ParsesDeviceAndDieSpecs)
{
    const auto device = platforms::parseKillEvent("3@10");
    ASSERT_TRUE(device.has_value());
    EXPECT_EQ(device->device, 3u);
    EXPECT_EQ(device->die, -1);
    EXPECT_EQ(device->at, sim::microseconds(10));

    const auto die = platforms::parseKillEvent("0.7@0");
    ASSERT_TRUE(die.has_value());
    EXPECT_EQ(die->device, 0u);
    EXPECT_EQ(die->die, 7);
    EXPECT_EQ(die->at, 0u);

    // The largest values each field holds still parse.
    const auto edge = platforms::parseKillEvent(
        "4294967295.2147483647@18446744073709551");
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->device, 4294967295u);
    EXPECT_EQ(edge->die, 2147483647);
    EXPECT_EQ(edge->at, sim::microseconds(18446744073709551ull));
}

TEST(KillSpec, RejectsMalformedAndOutOfRangeSpecs)
{
    for (const char *bad :
         {"", "@", "3", "3@", "@10", "3.@10", ".2@10", "3.2.1@10",
          "-1@10", "+3@10", " 3@10", "3@-5", "3@1e3", "x@10", "3.x@10",
          // Out of range: a narrowing cast would turn device 2^32
          // into device 0 and die 2^32-1 into -1, the whole-device
          // sentinel.
          "4294967296@10", "0.4294967295@10", "0.2147483648@10",
          "0@18446744073709552"})
        EXPECT_FALSE(platforms::parseKillEvent(bad).has_value()) << bad;
}

TEST(FaultDeterminism, KilledDeviceReroutesIdenticallyAcrossJobs)
{
    FaultRig rig;
    // Device 3 is down from tick 0: every command whose primary is
    // dev3 must fall back to a surviving replica, on any worker count.
    rig.rc.kills.push_back(platforms::KillEvent{3, -1, 0});
    platforms::TopologyConfig topo;
    topo.devices = 8;
    topo.replication = 2;
    auto j1 = rig.run(topo, 1);
    auto j2 = rig.run(topo, 2);
    auto j8 = rig.run(topo, 8);
    EXPECT_TRUE(j1.ok); // R=2 absorbs the kill; no command is lost.
    EXPECT_GT(j1.fallbacks, 0u);
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j8);
    // The fault instruments exist on a faulted run.
    EXPECT_NE(j1.json.find("engine.router.replica_fallbacks"),
              std::string::npos);
    EXPECT_NE(j1.json.find("health.alive"), std::string::npos);
}

TEST(FaultDeterminism, UnreplicatedKillFailsDeterministically)
{
    FaultRig rig;
    // With replication = 1 there is nowhere to reroute: commands for
    // the dead device abort — but identically on every worker count.
    rig.rc.kills.push_back(platforms::KillEvent{1, -1, 0});
    platforms::TopologyConfig topo;
    topo.devices = 4;
    auto j1 = rig.run(topo, 1);
    auto j4 = rig.run(topo, 4);
    EXPECT_FALSE(j1.ok);
    EXPECT_EQ(j1.fallbacks, 0u);
    EXPECT_EQ(j1, j4);
}

TEST(FaultDeterminism, DisturbedReadsIdenticalAcrossJobs)
{
    FaultRig rig;
    // Read-retry disturbance only (no kills): timing inflates but the
    // hash-chain draw is device/die/seq-keyed, so outputs still match.
    rig.rc.system.disturb.retryProb = 0.05;
    platforms::TopologyConfig topo;
    topo.devices = 4;
    auto j1 = rig.run(topo, 1);
    auto j4 = rig.run(topo, 4);
    EXPECT_TRUE(j1.ok);
    EXPECT_NE(j1.json.find("flash.retries"), std::string::npos);
    EXPECT_EQ(j1, j4);
}

TEST(KillContract, KilledDieAbortsOnEveryPlatform)
{
    // The kill contract of DESIGN.md §17 holds on both pipelines: a
    // read on a dead die aborts its command and fails the run, and
    // the engine counts only the reads the backend really sensed.
    FaultRig rig;
    for (const char *spec : {"0.3@0", "0@0"}) {
        for (platforms::PlatformKind kind : platforms::allPlatforms()) {
            const std::string what =
                platforms::platformName(kind) + " --die-kill " + spec;
            platforms::RunConfig rc = rig.rc;
            rc.kills = {*platforms::parseKillEvent(spec)};
            sim::MetricRegistry reg;
            platforms::runPlatform(platforms::makePlatform(kind), rc,
                                   *rig.bundle, &reg);
            auto counter = [&reg](const char *name) -> std::uint64_t {
                const sim::Counter *c = reg.findCounter(name);
                return c ? c->value() : 0;
            };
            ASSERT_NE(reg.findGauge("run.ok"), nullptr) << what;
            EXPECT_EQ(reg.findGauge("run.ok")->value(), 0.0) << what;
            EXPECT_GT(counter("flash.failed_reads"), 0u) << what;
            EXPECT_EQ(counter("engine.aborted_commands"),
                      counter("flash.failed_reads"))
                << what;
            EXPECT_EQ(counter("engine.flash_reads"),
                      counter("flash.reads"))
                << what;
        }
    }
}

TEST(FaultDeterminism, ReplicationAloneKeepsRunHealthy)
{
    FaultRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 4;
    topo.replication = 2;
    auto j1 = rig.run(topo, 1);
    auto j4 = rig.run(topo, 4);
    EXPECT_TRUE(j1.ok);
    EXPECT_EQ(j1, j4);
    // No faults: replication spreads load but never falls back.
    EXPECT_NE(j1.json.find("array.replication"), std::string::npos);
}

} // namespace
