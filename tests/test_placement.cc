/**
 * @file
 * Tests for replica placement and health-aware fault routing
 * (DESIGN.md §17): the replication factor clamps once, the engine's
 * router chains a killed primary's commands to the next live replica,
 * and a replicated array run with a device killed produces
 * byte-identical fingerprints across worker counts — the determinism
 * property extended to faulted runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
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

TEST(TopologyConfig, ReplicationClampsToDeviceCount)
{
    // The one clamp of R: 0 clamps up to 1, anything beyond the device
    // count clamps down, and a single device has no replica.
    platforms::TopologyConfig topo;
    topo.devices = 4;
    topo.replication = 0;
    EXPECT_EQ(topo.effectiveReplication(), 1u);
    topo.replication = 99;
    EXPECT_EQ(topo.effectiveReplication(), 4u);
    topo.devices = 1;
    topo.replication = 3;
    EXPECT_EQ(topo.effectiveReplication(), 1u);
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
        /** The run's metrics, for identity checks. */
        sim::MetricRegistry reg;

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
        Fingerprint fp;
        auto r = platforms::runPlatform(
            platforms::makePlatform(platforms::PlatformKind::BG2), traced,
            *bundle, &fp.reg);
        fp.ok = r.ok;
        fp.fallbacks = r.replicaFallbacks;
        std::ostringstream json, csv, trace;
        fp.reg.writeJson(json);
        platforms::writeCsvRow(csv, r);
        sink.write(trace);
        fp.json = json.str();
        fp.csv = csv.str();
        fp.trace = trace.str();
        return fp;
    }
};

// ==================================================================
// Replica routing: chained declustering as GnnEngine runs it.
// ==================================================================

TEST(ReplicaRouting, KilledPrimaryChainsToTheNextLiveReplica)
{
    // A zero-hop target is exactly one command, on whichever device
    // the engine's router picks. This target's Partition owner is
    // device 1, so its replica k lives on device (1 + k) % 4.
    FaultRig rig;
    const Partition part =
        Partition::build(rig.bundle->graph, PartitionPolicy::Hash, 4);
    graph::NodeId target = 0;
    while (part.ownerOf(target) != 1)
        ++target;
    gnn::ModelSpec retrieval = rig.bundle->model;
    retrieval.hops = 0;
    retrieval.fanouts.clear();

    struct Case
    {
        unsigned replication;
        std::vector<unsigned> killed;
        unsigned runsOn;
        std::uint64_t fallbacks;
    };
    for (const Case &c : {Case{2, {1}, 2, 1}, Case{3, {1, 2}, 3, 1},
                          Case{1, {}, 1, 0}}) {
        platforms::RunConfig rc = rig.rc;
        rc.model = retrieval;
        rc.topology.devices = 4;
        rc.topology.replication = c.replication;
        for (unsigned d : c.killed)
            rc.kills.push_back(platforms::KillEvent{d, -1, 0});
        platforms::PlatformSession session(
            platforms::makePlatform(platforms::PlatformKind::BG2), rc,
            *rig.bundle);
        session.runBatch(0, std::span<const graph::NodeId>(&target, 1));
        const platforms::RunResult r = session.finish();
        const std::string what = "R = " + std::to_string(c.replication);
        ASSERT_TRUE(r.ok) << what;
        ASSERT_EQ(r.commands, 1u) << what;
        for (unsigned d = 0; d < 4; ++d)
            EXPECT_EQ(r.perDevice[d].commands, d == c.runsOn ? 1u : 0u)
                << what << ", device " << d;
        EXPECT_EQ(r.replicaFallbacks, c.fallbacks) << what;
    }
}

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
    // Conservation identities, true by construction: one session total
    // feeds both fallback counters, and the per-device forwards feed
    // every cross-device count.
    auto counter = [&j1](const std::string &name) -> std::uint64_t {
        const sim::Counter *c = j1.reg.findCounter(name);
        EXPECT_NE(c, nullptr) << name;
        return c ? c->value() : 0;
    };
    EXPECT_EQ(counter("engine.router.replica_fallbacks"),
              counter("array.replica_fallbacks"));
    std::uint64_t out_forwards = 0;
    for (unsigned d = 0; d < topo.devices; ++d)
        out_forwards += counter("array.dev" + std::to_string(d) +
                                ".p2p.out_forwards");
    EXPECT_GT(out_forwards, 0u);
    EXPECT_EQ(counter("array.cross_device"), counter("array.p2p.forwards"));
    EXPECT_EQ(counter("array.p2p.forwards"), out_forwards);
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
