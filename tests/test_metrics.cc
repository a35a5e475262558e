/**
 * @file
 * MetricRegistry tests: instrument lifecycle (get-or-create, kind
 * collision, lookup), merge semantics per kind, CmdStats / PrepTally
 * merge and publish, snapshot export, the Chrome-trace sink, the
 * golden test pinning the session's RunResult to the pre-refactor
 * values for a CC and a BG-2 run, the conservation audit, snapshot
 * names that do not depend on the batch count, the byte digests of
 * the metrics JSON and Chrome trace of the pinned runs, and the hash
 * of every derived RunResult field of traced runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "platforms/platform.h"
#include "platforms/runner.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;
using sim::MetricRegistry;

// ==================================================================
// Registry basics.
// ==================================================================

TEST(MetricRegistry, GetOrCreateReturnsSameInstrument)
{
    MetricRegistry reg;
    sim::Counter &a = reg.counter("flash.reads");
    a.add(3);
    sim::Counter &b = reg.counter("flash.reads");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.contains("flash.reads"));
    EXPECT_FALSE(reg.contains("flash.writes"));
}

TEST(MetricRegistry, KindCollisionIsFatal)
{
    MetricRegistry reg;
    reg.counter("x.y");
    EXPECT_DEATH({ reg.gauge("x.y"); }, "already registered");
}

TEST(MetricRegistry, FindIsKindCheckedAndConst)
{
    MetricRegistry reg;
    reg.counter("a").add(7);
    reg.gauge("g").set(1.5);
    reg.accum("m").add(2.0);
    const MetricRegistry &cref = reg;
    ASSERT_NE(cref.findCounter("a"), nullptr);
    EXPECT_EQ(cref.findCounter("a")->value(), 7u);
    EXPECT_EQ(cref.findCounter("g"), nullptr); // Wrong kind.
    EXPECT_EQ(cref.findGauge("a"), nullptr);
    EXPECT_EQ(cref.findAccum("missing"), nullptr);
    ASSERT_NE(cref.findAccum("m"), nullptr);
    EXPECT_DOUBLE_EQ(cref.findAccum("m")->sum(), 2.0);
}

TEST(MetricRegistry, HistogramGeometryAppliesOnCreation)
{
    MetricRegistry reg;
    sim::Histogram &h = reg.histogram("h", 10.0, 32);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 10.0);
    EXPECT_EQ(h.buckets().size(), 32u);
    // Second request with different geometry returns the original.
    sim::Histogram &again = reg.histogram("h", 99.0, 4);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.buckets().size(), 32u);
}

TEST(MetricRegistry, ForEachIsSortedByName)
{
    MetricRegistry reg;
    reg.counter("b");
    reg.counter("a.z");
    reg.counter("a.a");
    std::vector<std::string> names;
    reg.forEach([&](const std::string &n,
                    const MetricRegistry::Instrument &) {
        names.push_back(n);
    });
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.a");
    EXPECT_EQ(names[1], "a.z");
    EXPECT_EQ(names[2], "b");
}

// ==================================================================
// Merge semantics.
// ==================================================================

TEST(MetricRegistry, MergeCombinesEveryKind)
{
    MetricRegistry a;
    a.counter("c").add(10);
    a.gauge("g").set(1.0);
    a.accum("m").add(2.0);
    a.histogram("h", 1.0, 8).add(3.0);
    a.interval("i").add(0, 5);

    MetricRegistry b;
    b.counter("c").add(32);
    b.counter("only_b").add(1);
    b.gauge("g").set(4.0);
    b.accum("m").add(6.0);
    b.histogram("h", 1.0, 8).add(3.5);
    b.interval("i").add(5, 9); // Contiguous: coalesces with [0,5).

    a.merge(b);
    EXPECT_EQ(a.counter("c").value(), 42u);
    EXPECT_EQ(a.counter("only_b").value(), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("g").value(), 4.0); // Last-write-wins.
    EXPECT_EQ(a.accum("m").count(), 2u);
    EXPECT_DOUBLE_EQ(a.accum("m").sum(), 8.0);
    EXPECT_EQ(a.histogram("h").summary().count(), 2u);
    EXPECT_EQ(a.interval("i").get().size(), 1u);
    EXPECT_EQ(a.interval("i").busy(), 9u);
}

TEST(MetricRegistry, MergeIntoEmptyIsExactCopy)
{
    MetricRegistry src;
    src.accum("m").add(1.25);
    src.accum("m").add(-3.0);
    src.histogram("h", 10.0, 1024).add(17.0);
    src.interval("i").add(3, 7);
    src.interval("i").add(10, 12);

    MetricRegistry dst;
    dst.merge(src);
    const sim::Accumulator *m = dst.findAccum("m");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count(), 2u);
    EXPECT_DOUBLE_EQ(m->sum(), -1.75);
    EXPECT_DOUBLE_EQ(m->min(), -3.0);
    EXPECT_DOUBLE_EQ(m->max(), 1.25);
    ASSERT_TRUE(dst.contains("h"));
    const sim::Histogram &h = dst.histogram("h");
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 10.0);
    EXPECT_EQ(h.buckets().size(), 1024u);
    ASSERT_TRUE(dst.contains("i"));
    const sim::IntervalTrace &i = dst.interval("i");
    EXPECT_EQ(i.get().size(), 2u);
    EXPECT_EQ(i.busy(), 6u);
}

TEST(IntervalTraceMerge, UnionReCoalescesOverlaps)
{
    sim::IntervalTrace a;
    a.add(0, 10);
    a.add(20, 30);
    sim::IntervalTrace b;
    b.add(5, 22); // Bridges both of a's spans.
    a.merge(b);
    EXPECT_EQ(a.get().size(), 1u);
    EXPECT_EQ(a.busy(), 30u);
}

TEST(AccumulatorMerge, MatchesMergedFriend)
{
    sim::Accumulator a, b;
    a.add(1.0);
    a.add(5.0);
    b.add(-2.0);
    sim::Accumulator via_friend = merged(a, b);
    sim::Accumulator via_member = a;
    via_member.merge(b);
    EXPECT_EQ(via_member.count(), via_friend.count());
    EXPECT_DOUBLE_EQ(via_member.sum(), via_friend.sum());
    EXPECT_DOUBLE_EQ(via_member.min(), via_friend.min());
    EXPECT_DOUBLE_EQ(via_member.max(), via_friend.max());
}

// ==================================================================
// CmdStats / PrepTally aggregation API.
// ==================================================================

TEST(CmdStats, MergeAccumulatesAllFields)
{
    engines::CmdStats a, b;
    a.waitBefore.add(1.0);
    a.lifetime.add(10.0);
    a.lifetimeHist.add(10.0);
    b.waitBefore.add(3.0);
    b.flashTime.add(2.0);
    b.lifetime.add(20.0);
    b.lifetimeHist.add(20.0);
    a.merge(b);
    EXPECT_EQ(a.waitBefore.count(), 2u);
    EXPECT_DOUBLE_EQ(a.waitBefore.sum(), 4.0);
    EXPECT_EQ(a.flashTime.count(), 1u);
    EXPECT_EQ(a.lifetime.count(), 2u);
    EXPECT_EQ(a.lifetimeHist.summary().count(), 2u);
}

TEST(PrepTally, MergeAndRegistryRoundTrip)
{
    engines::PrepTally a, b;
    a.flashReads = 10;
    a.channelBytes = 4096;
    a.hostCpuBusy = 77;
    b.flashReads = 5;
    b.pcieBytes = 512;
    b.abortedCommands = 1;

    MetricRegistry reg;
    a.publish(reg);
    b.publish(reg);
    a.merge(b);
    EXPECT_EQ(a.flashReads, 15u);
    EXPECT_EQ(a.channelBytes, 4096u);
    EXPECT_EQ(a.pcieBytes, 512u);
    EXPECT_EQ(a.hostCpuBusy, 77u);
    EXPECT_EQ(a.abortedCommands, 1u);
    // Publishing each tally adds it in: the registry holds the sum.
    EXPECT_EQ(reg.findCounter("engine.flash_reads")->value(),
              a.flashReads);
    EXPECT_EQ(reg.findCounter("engine.channel_bytes")->value(),
              a.channelBytes);
    EXPECT_EQ(reg.findCounter("engine.pcie_bytes")->value(), a.pcieBytes);
    EXPECT_EQ(reg.findCounter("engine.host_cpu_busy_ticks")->value(),
              a.hostCpuBusy);
    EXPECT_EQ(reg.findCounter("engine.aborted_commands")->value(),
              a.abortedCommands);
}

// ==================================================================
// Snapshot export.
// ==================================================================

TEST(MetricRegistry, JsonSnapshotListsEveryInstrument)
{
    MetricRegistry reg;
    reg.counter("flash.reads").add(7);
    reg.gauge("run.die_util").set(0.25);
    reg.accum("engine.cmd.lifetime_us").add(3.5);
    reg.histogram("h", 2.0, 4).add(5.0);
    reg.interval("i").add(1, 4);
    std::ostringstream os;
    reg.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"flash.reads\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"accumulator\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"interval\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}'); // An embeddable object, no newline.
}

TEST(MetricRegistry, CsvSnapshotHasHeaderAndRows)
{
    MetricRegistry reg;
    reg.counter("a").add(1);
    reg.accum("b").add(2.0);
    std::ostringstream os;
    MetricRegistry::writeCsvHeader(os, "platform,");
    reg.writeCsv(os, "BG-2,");
    std::string csv = os.str();
    EXPECT_NE(csv.find("platform,name,kind"), std::string::npos);
    EXPECT_NE(csv.find("BG-2,a,counter"), std::string::npos);
    EXPECT_NE(csv.find("BG-2,b,accumulator"), std::string::npos);
}

// ==================================================================
// Chrome-trace sink.
// ==================================================================

TEST(TraceSink, EmitsCompleteAndAsyncEvents)
{
    sim::TraceSink sink;
    sink.setProcessName(1, "flash dies");
    sink.setThreadName(1, 3, "ch0.die3");
    sink.complete("sense", "flash", 1, 3, sim::Tick{1500},
                  sim::Tick{4500});
    std::uint64_t id = sink.nextId();
    sink.beginAsync("cmd", "cmd", id, 1000);
    sink.endAsync("cmd", "cmd", id, 9000);
    EXPECT_EQ(sink.events(), 3u);
    EXPECT_EQ(sink.dropped(), 0u);

    std::ostringstream os;
    sink.write(os);
    std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("ch0.die3"), std::string::npos);
    // Tick 1500 ns = 1.500 us in the exported microsecond clock.
    EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
}

TEST(TraceSink, DropsBeyondCapacity)
{
    sim::TraceSink sink(2);
    sink.complete("a", "c", 0, 0, 0, 1);
    sink.complete("b", "c", 0, 0, 1, 2);
    sink.complete("c", "c", 0, 0, 2, 3);
    EXPECT_EQ(sink.events(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);
}

// ==================================================================
// End-to-end: the session's RunResult must equal the pre-refactor
// values (golden, recorded before the registry landed), and the
// snapshot must cover every layer's namespace.
// ==================================================================

class MetricsGolden : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        gnn::ModelConfig model;
        model.hops = 2;
        model.fanout = 2;
        model.hiddenDim = 128;
        model.seed = 0xBEAC0;
        graph::WorkloadSpec spec = graph::workload("amazon");
        spec.simNodes = 2000;
        platforms::RunConfig rc;
        rc.batchSize = 16;
        rc.batches = 2;
        bundle = platforms::makeBundle(spec, rc.system.flash, model)
                     .release();
        run = rc;
    }

    static void
    TearDownTestSuite()
    {
        delete bundle;
        bundle = nullptr;
    }

    static platforms::WorkloadBundle *bundle;
    static platforms::RunConfig run;
};

platforms::WorkloadBundle *MetricsGolden::bundle = nullptr;
platforms::RunConfig MetricsGolden::run;

TEST_F(MetricsGolden, CcRunMatchesPreRefactorValues)
{
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::CC), run,
        *bundle);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.targets, 32u);
    EXPECT_EQ(r.prepTime, 876780u);
    EXPECT_EQ(r.totalTime, 878155u);
    EXPECT_DOUBLE_EQ(r.throughput, 36440.036212285988);
    EXPECT_EQ(r.tally.flashReads, 458u);
    EXPECT_EQ(r.tally.channelBytes, 1875968u);
    EXPECT_EQ(r.tally.dramBytes, 1875968u);
    EXPECT_EQ(r.tally.pcieBytes, 1965568u);
    EXPECT_EQ(r.tally.hostCpuBusy, 2037440u);
    EXPECT_EQ(r.tally.featureBytes, 89600u);
    EXPECT_EQ(r.tally.abortedCommands, 0u);
    EXPECT_EQ(r.cmdStats.lifetime.count(), 458u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.sum(), 28972.661999999989);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.mean(), 63.259087336244519);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitBefore.sum(), 23315.040000000074);
    EXPECT_DOUBLE_EQ(r.cmdStats.flashTime.sum(), 3718.9599999999787);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitAfter.sum(), 1938.6619999999971);
    EXPECT_EQ(r.cmdStats.lifetimeHist.summary().count(), 458u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(50),
                     56.274509803921568);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(99),
                     140.84000000000003);
    EXPECT_DOUBLE_EQ(r.dieUtil, 0.012223781678633043);
    EXPECT_DOUBLE_EQ(r.channelUtil, 0.16689536585226983);
    EXPECT_DOUBLE_EQ(r.coreUtil, 0.052154801828834314);
    EXPECT_DOUBLE_EQ(r.dramUtil, 0.26703258536363172);
    EXPECT_DOUBLE_EQ(r.pcieUtil, 0.27978659803793182);
    EXPECT_EQ(r.accelBusy, 2750u);
    EXPECT_DOUBLE_EQ(r.energy.total(), 0.0043356781544000005);
    EXPECT_DOUBLE_EQ(r.energy.flash, 0.00013740000000000001);
    EXPECT_DOUBLE_EQ(r.energy.dram, 0.0003282944);
    EXPECT_DOUBLE_EQ(r.energy.pcie, 0.00029483519999999998);
    EXPECT_DOUBLE_EQ(r.energy.cores, 6.4120000000000003e-05);
    EXPECT_DOUBLE_EQ(r.energy.accel, 3.8252544000000002e-06);
    EXPECT_DOUBLE_EQ(r.energy.engines, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.channel, 0.0001875968);
    EXPECT_DOUBLE_EQ(r.energy.hostCpu, 0.0030561600000000005);
    EXPECT_DOUBLE_EQ(r.energy.background, 0.00026344649999999998);
    EXPECT_DOUBLE_EQ(r.avgPowerW, 4.9372584047235399);
    EXPECT_EQ(r.hops.size(), 3u);
    EXPECT_EQ(r.lastBatchStart, 442652u);
    EXPECT_EQ(r.lastSubgraph.size(), 112u);
}

TEST_F(MetricsGolden, Bg2RunMatchesPreRefactorValues)
{
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), run,
        *bundle);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.targets, 32u);
    EXPECT_EQ(r.prepTime, 121025u);
    EXPECT_EQ(r.totalTime, 133589u);
    EXPECT_DOUBLE_EQ(r.throughput, 239540.68074467208);
    EXPECT_EQ(r.tally.flashReads, 234u);
    EXPECT_EQ(r.tally.channelBytes, 95768u);
    EXPECT_EQ(r.tally.dramBytes, 89600u);
    EXPECT_EQ(r.tally.pcieBytes, 0u);
    EXPECT_EQ(r.tally.hostCpuBusy, 1920u);
    EXPECT_EQ(r.tally.featureBytes, 89600u);
    EXPECT_EQ(r.tally.abortedCommands, 0u);
    EXPECT_EQ(r.cmdStats.lifetime.count(), 234u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.sum(), 1228.8400000000004);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.mean(), 5.251452991452993);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitBefore.sum(), 190.88999999999999);
    EXPECT_DOUBLE_EQ(r.cmdStats.flashTime.sum(), 874.57000000000244);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitAfter.sum(), 163.37999999999988);
    EXPECT_EQ(r.cmdStats.lifetimeHist.summary().count(), 234u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(50),
                     5.1769911504424782);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(99),
                     12.869999999999999);
    EXPECT_DOUBLE_EQ(r.dieUtil, 0.044145429264385541);
    EXPECT_DOUBLE_EQ(r.channelUtil, 0.056006669710829488);
    EXPECT_DOUBLE_EQ(r.coreUtil, 0.0);
    EXPECT_DOUBLE_EQ(r.dramUtil, 0.16767847652127046);
    EXPECT_DOUBLE_EQ(r.pcieUtil, 0.0);
    EXPECT_EQ(r.accelBusy, 25128u);
    EXPECT_DOUBLE_EQ(r.energy.total(), 0.0001424415136);
    EXPECT_DOUBLE_EQ(r.energy.flash, 7.0199999999999999e-05);
    EXPECT_DOUBLE_EQ(r.energy.dram, 1.5679999999999999e-05);
    EXPECT_DOUBLE_EQ(r.energy.pcie, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.cores, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.accel, 3.9975936000000001e-06);
    EXPECT_DOUBLE_EQ(r.energy.engines, 3.0420000000000004e-08);
    EXPECT_DOUBLE_EQ(r.energy.channel, 9.5767999999999995e-06);
    EXPECT_DOUBLE_EQ(r.energy.hostCpu, 2.8799999999999995e-06);
    EXPECT_DOUBLE_EQ(r.energy.background, 4.0076700000000002e-05);
    EXPECT_DOUBLE_EQ(r.avgPowerW, 1.0662667854389207);
    EXPECT_EQ(r.hops.size(), 3u);
    EXPECT_EQ(r.lastBatchStart, 61215u);
    EXPECT_EQ(r.lastSubgraph.size(), 112u);
}

TEST_F(MetricsGolden, SnapshotCoversEveryLayerNamespace)
{
    MetricRegistry reg;
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), run,
        *bundle, &reg);
    ASSERT_TRUE(r.ok);
    ASSERT_FALSE(reg.empty());

    // One representative instrument per layer.
    ASSERT_NE(reg.findCounter("flash.reads"), nullptr);
    EXPECT_GT(reg.findCounter("flash.reads")->value(), 0u);
    ASSERT_NE(reg.findCounter("flash.ch0.die0.sense_ticks"), nullptr);
    ASSERT_NE(reg.findCounter("ssd.firmware.core_busy"), nullptr);
    ASSERT_NE(reg.findCounter("ssd.ftl.translations"), nullptr);
    ASSERT_NE(reg.findAccum("engine.cmd.lifetime_us"), nullptr);
    EXPECT_EQ(reg.findAccum("engine.cmd.lifetime_us")->count(),
              r.cmdStats.lifetime.count());
    ASSERT_NE(reg.findCounter("engine.router.frames_parsed"), nullptr);
    ASSERT_NE(reg.findCounter("engine.sampler.executed"), nullptr);
    ASSERT_NE(reg.findCounter("accel.macs"), nullptr);
    ASSERT_NE(reg.findGauge("energy.total_j"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("energy.total_j")->value(),
                     r.energy.total());
    ASSERT_NE(reg.findGauge("run.throughput"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("run.throughput")->value(),
                     r.throughput);

    // The registry is a projection of the RunResult's totals.
    EXPECT_EQ(reg.findCounter("engine.flash_reads")->value(),
              r.tally.flashReads);
    EXPECT_EQ(reg.findCounter("run.targets")->value(), r.targets);
}

TEST_F(MetricsGolden, AuditTotalsNamesTheFirstBrokenRule)
{
    platforms::RunConfig rc = run;
    rc.topology.devices = 2;
    const platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.perDevice.size(), 2u);
    EXPECT_EQ(platforms::auditTotals(r), "");

    // A device that lost one command no longer sums to the run.
    platforms::RunResult lost = r;
    ASSERT_GT(lost.perDevice[1].commands, 0u);
    --lost.perDevice[1].commands;
    EXPECT_EQ(platforms::auditTotals(lost),
              "per-device commands sum to " +
                  std::to_string(r.commands - 1) + ", not the run's " +
                  std::to_string(r.commands));

    // A sample only the histogram saw breaks the sample-count rule.
    platforms::RunResult extra = r;
    extra.cmdStats.lifetimeHist.add(1.0);
    const std::string n = std::to_string(r.cmdStats.lifetime.count());
    EXPECT_EQ(platforms::auditTotals(extra),
              "command-lifetime samples differ: wait_before " + n +
                  ", flash_time " + n + ", wait_after " + n +
                  ", lifetime " + n + ", histogram " +
                  std::to_string(r.cmdStats.lifetime.count() + 1));
}

class PlatformSession : public MetricsGolden
{
};

TEST_F(PlatformSession, SnapshotNamesDoNotDependOnBatchCount)
{
    struct Case
    {
        const char *name;
        platforms::PlatformKind kind;
        unsigned devices;
    };
    const Case cases[] = {
        {"BG2", platforms::PlatformKind::BG2, 1},
        {"BG2_TwoDevices", platforms::PlatformKind::BG2, 2},
        {"CC", platforms::PlatformKind::CC, 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<std::string> names[2];
        for (std::uint32_t batches : {0u, 1u}) {
            platforms::RunConfig rc = run;
            rc.batches = batches;
            rc.topology.devices = c.devices;
            MetricRegistry reg;
            platforms::runPlatform(platforms::makePlatform(c.kind), rc,
                                   *bundle, &reg);
            reg.forEach([&](const std::string &n,
                            const MetricRegistry::Instrument &) {
                names[batches].push_back(n);
            });
        }
        EXPECT_FALSE(names[0].empty());
        EXPECT_EQ(names[0], names[1]);
    }
}

TEST_F(MetricsGolden, TraceSinkRecordsCommandLifetimes)
{
    platforms::RunConfig rc = run;
    sim::TraceSink sink;
    rc.traceSink = &sink;
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(sink.events(), 0u);
    std::ostringstream os;
    sink.write(os);
    std::string json = os.str();
    // Command spans with nested phases, flash ops, batch spans.
    EXPECT_NE(json.find("\"name\": \"cmd\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"sense\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"xfer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"route\""), std::string::npos);
}

TEST_F(MetricsGolden, ReserveExactMirrorsTheBundleBlocks)
{
    // The session FTL must hold exactly the bundle's reserved blocks.
    ssd::Ftl ftl(run.system.flash);
    ASSERT_TRUE(ftl.reserveExact(bundle->layout.blocks));
    for (flash::BlockId b : bundle->layout.blocks)
        EXPECT_TRUE(ftl.isReserved(b));
    // Mirroring twice must fail (already reserved), not double-book.
    EXPECT_FALSE(ftl.reserveExact(bundle->layout.blocks));
}

// ==================================================================
// Byte goldens: the FNV-1a-64 digest of the full metrics JSON and of
// the Chrome trace of every platform, the cache tier on both
// pipelines and on an array, and three fault gates: a degraded
// replicated array, a killed single device (the engine's fallback
// counter) and a die kill on an unreplicated array (the array's fault
// instruments alone). Any
// change to a command path that moves a single byte of either output
// fails here.
// ==================================================================

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct DigestCase
{
    const char *name;
    platforms::PlatformKind kind;
    double cacheMB;
    unsigned devices;
    /** Replication factor R of the topology. */
    unsigned replication;
    /** One `dev[.die]@us` kill spec (nullptr = no fault). */
    const char *kill;
    std::uint64_t metrics;
    std::uint64_t trace;
};

void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << c.name;
}

class MetricsDigest : public MetricsGolden,
                      public ::testing::WithParamInterface<DigestCase>
{
};

TEST_P(MetricsDigest, JsonAndTraceBytesArePinned)
{
    const DigestCase &c = GetParam();
    platforms::RunConfig rc = run;
    rc.cache.capacityMB = c.cacheMB;
    rc.topology.devices = c.devices;
    rc.topology.replication = c.replication;
    if (c.kill)
        rc.kills = {*platforms::parseKillEvent(c.kill)};
    sim::TraceSink sink;
    rc.traceSink = &sink;
    MetricRegistry reg;
    platforms::runPlatform(platforms::makePlatform(c.kind), rc, *bundle,
                           &reg);
    std::ostringstream metrics, trace;
    reg.writeJson(metrics);
    sink.write(trace);
    const std::uint64_t got_metrics = fnv1a64(metrics.str());
    const std::uint64_t got_trace = fnv1a64(trace.str());
    EXPECT_EQ(got_metrics, c.metrics)
        << std::hex << "metrics digest 0x" << got_metrics;
    EXPECT_EQ(got_trace, c.trace)
        << std::hex << "trace digest 0x" << got_trace;
}

INSTANTIATE_TEST_SUITE_P(
    PinnedRuns, MetricsDigest,
    ::testing::Values(
        DigestCase{"CC", platforms::PlatformKind::CC, 0, 1, 1,
                   nullptr, 0xb139a7bbcabbe48bull, 0x7b7fcb522870e9efull},
        DigestCase{"CC_Cache4MiB", platforms::PlatformKind::CC, 4, 1, 1,
                   nullptr, 0x554a4141f578b00eull, 0xe013605359c05a6cull},
        DigestCase{"GLIST", platforms::PlatformKind::GLIST, 0, 1, 1,
                   nullptr, 0xdf806a6ea1208035ull, 0xe275e0463c134a7full},
        DigestCase{"SmartSage", platforms::PlatformKind::SmartSage, 0, 1, 1,
                   nullptr, 0xf3e76de0429ab1ecull, 0x09a60cda98aae7b4ull},
        DigestCase{"BG1", platforms::PlatformKind::BG1, 0, 1, 1,
                   nullptr, 0x165b53526bebf2b6ull, 0x994221477a779e34ull},
        DigestCase{"BG_SP", platforms::PlatformKind::BG_SP, 0, 1, 1,
                   nullptr, 0xf58f3d30e3b7bf04ull, 0x57ad288470996528ull},
        DigestCase{"BG_DG", platforms::PlatformKind::BG_DG, 0, 1, 1,
                   nullptr, 0xc88d7dac85f2fe7cull, 0x5652964639603977ull},
        DigestCase{"BG_DGSP", platforms::PlatformKind::BG_DGSP, 0, 1, 1,
                   nullptr, 0xef3928460d1c76cdull, 0x7256c8362e418a32ull},
        DigestCase{"BG2", platforms::PlatformKind::BG2, 0, 1, 1,
                   nullptr, 0x0ec882b6823a6104ull, 0xd123bc7079985507ull},
        DigestCase{"BG2_Cache4MiB", platforms::PlatformKind::BG2, 4, 1, 1,
                   nullptr, 0x114718759ef59b69ull, 0x3688ecb66e3f6c9cull},
        DigestCase{"BG2_TwoDevicesR2OneKilled",
                   platforms::PlatformKind::BG2, 0, 2, 2, "1@40",
                   0x5bb130c4722f46cbull, 0x959d26a91206cfe7ull},
        DigestCase{"BG2_OneDeviceKilled",
                   platforms::PlatformKind::BG2, 0, 1, 1, "0@40",
                   0xad9b8c6923feaf0full, 0x790d872284f09e76ull},
        DigestCase{"BG2_FourDevicesDieKill",
                   platforms::PlatformKind::BG2, 0, 4, 1, "1.3@40",
                   0x18bce589f90f361bull, 0xdfca6fea1c6b7b8bull},
        DigestCase{"BG2_FourDevicesCache4MiB",
                   platforms::PlatformKind::BG2, 4, 4, 1, nullptr,
                   0xac0ea292e9669ef4ull, 0xa3929db09adfddfaull}),
    [](const ::testing::TestParamInfo<DigestCase> &tp) {
        return std::string(tp.param.name);
    });

// ==================================================================
// RunResult digest: the FNV-1a-64 hash over every field finish()
// derives from the run totals, on traced runs, so an array's
// utilisation series and the energy and lifetime figures are pinned
// bit for bit (the metrics digests above never trace utilisation).
// ==================================================================

/** FNV-1a-64 over the bit patterns of a run's derived fields. */
class FieldHash
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const std::vector<double> &series)
    {
        add(std::uint64_t{series.size()});
        for (double v : series)
            add(v);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ull;
};

std::uint64_t
derivedFieldsHash(const platforms::RunResult &r)
{
    FieldHash h;
    h.add(r.dieSeries);
    h.add(r.channelSeries);
    h.add(r.dieUtil);
    h.add(r.channelUtil);
    h.add(r.coreUtil);
    h.add(r.dramUtil);
    h.add(r.pcieUtil);
    h.add(std::uint64_t{r.accelBusy});
    h.add(std::uint64_t{r.tally.hostCpuBusy});
    h.add(r.targets);
    h.add(r.commands);
    h.add(r.crossFraction);
    h.add(r.energy.total());
    h.add(r.avgPowerW);
    h.add(r.throughput);
    h.add(r.cmdStats.lifetime.sum());
    h.add(r.cmdStats.lifetimeHist.percentile(99));
    return h.value();
}

class RunResultDigest : public MetricsGolden
{
};

TEST_F(RunResultDigest, DerivedFieldsArePinned)
{
    struct Case
    {
        const char *name;
        platforms::PlatformKind kind;
        unsigned devices;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"BG2", platforms::PlatformKind::BG2, 1, 0x01f8d843c3a02989ull},
        {"BG2_FourDevices", platforms::PlatformKind::BG2, 4,
         0x2250ff9c2b32d090ull},
        {"CC", platforms::PlatformKind::CC, 1, 0x33974fae5cdae141ull},
        {"SmartSage", platforms::PlatformKind::SmartSage, 1,
         0x69338527a6558aaeull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        platforms::RunConfig rc = run;
        rc.traceUtilization = true;
        rc.utilizationBuckets = 32;
        rc.topology.devices = c.devices;
        const platforms::RunResult r = platforms::runPlatform(
            platforms::makePlatform(c.kind), rc, *bundle);
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.dieSeries.size(), 32u);
        const std::uint64_t got = derivedFieldsHash(r);
        EXPECT_EQ(got, c.digest) << std::hex << "digest 0x" << got;
    }
}

} // namespace
