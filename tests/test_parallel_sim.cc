/**
 * @file
 * Conservative parallel simulation tests (DESIGN.md §13): the
 * sim::Mailbox / SpinBarrier / ParallelSimulator primitives, the
 * EventQueue bulk-schedule fast path, and — the property the whole
 * design exists for — byte-identical metrics JSON and CSV from
 * multi-device array runs regardless of the worker count, including
 * the zero-lookahead edge case and a partition policy that maximizes
 * cross-device traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "platforms/report.h"
#include "platforms/runner.h"
#include "sim/executor.h"
#include "sim/mailbox.h"
#include "sim/metrics.h"
#include "sim/parallel_sim.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;

// ==================================================================
// Mailbox.
// ==================================================================

TEST(Mailbox, PostDrainAndPostedCount)
{
    sim::Mailbox<int> mb(3);
    EXPECT_EQ(mb.stations(), 3u);
    mb.post(1, 10);
    mb.post(1, 20);
    mb.post(2, 30);
    EXPECT_EQ(mb.posted(1), 2u);
    EXPECT_EQ(mb.posted(2), 1u);

    std::vector<int> got;
    mb.drain(1, got);
    std::vector<int> want = {10, 20};
    EXPECT_EQ(got, want); // FIFO per destination.
    got.clear();
    mb.drain(1, got);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(mb.posted(1), 2u); // posted() is a lifetime tally.
    mb.drain(0, got);
    EXPECT_TRUE(got.empty());
}

TEST(Mailbox, DrainHandsTheBufferToTheInbox)
{
    // Draining into the same buffer every window: the inbox takes the
    // caller's storage, so once both have grown neither reallocates.
    sim::Mailbox<int> mb(1);
    std::vector<int> buf;
    buf.reserve(64);
    const int *storage = buf.data();
    mb.post(0, 1);
    mb.drain(0, buf); // The inbox now owns the reserved storage.
    ASSERT_EQ(buf.size(), 1u);
    buf.clear();
    mb.post(0, 2);
    mb.drain(0, buf);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0], 2);
    EXPECT_EQ(buf.data(), storage);
}

TEST(MailboxDeath, DrainIntoAFullBufferPanics)
{
    sim::Mailbox<int> mb(1);
    std::vector<int> buf = {7};
    EXPECT_DEATH(mb.drain(0, buf), "still holds messages");
}

TEST(Mailbox, ConcurrentPostsAllArrive)
{
    sim::Mailbox<unsigned> mb(1);
    constexpr unsigned kThreads = 4, kEach = 500;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t)
        ts.emplace_back([&mb, t] {
            for (unsigned i = 0; i < kEach; ++i)
                mb.post(0, t * kEach + i);
        });
    for (auto &t : ts)
        t.join();
    std::vector<unsigned> all;
    mb.drain(0, all);
    ASSERT_EQ(all.size(), std::size_t{kThreads} * kEach);
    std::sort(all.begin(), all.end());
    for (unsigned i = 0; i < kThreads * kEach; ++i)
        EXPECT_EQ(all[i], i);
}

// ==================================================================
// SpinBarrier.
// ==================================================================

TEST(SpinBarrier, RoundsNeverOverlap)
{
    constexpr unsigned kParties = 4, kRounds = 200;
    sim::SpinBarrier barrier(kParties);
    std::atomic<unsigned> in_round{0};
    std::atomic<bool> overlap{false};
    std::vector<std::thread> ts;
    for (unsigned p = 0; p < kParties; ++p)
        ts.emplace_back([&] {
            for (unsigned r = 0; r < kRounds; ++r) {
                in_round.fetch_add(1);
                barrier.arriveAndWait();
                // Everyone from round r has arrived before anyone
                // proceeds; a later arrival from round r would mean
                // the barrier released early.
                if (in_round.load() < kParties * (r + 1))
                    overlap.store(true);
                barrier.arriveAndWait();
            }
        });
    for (auto &t : ts)
        t.join();
    EXPECT_FALSE(overlap.load());
    EXPECT_EQ(in_round.load(), kParties * kRounds);
}

// ==================================================================
// EventQueue::bulkScheduleAt.
// ==================================================================

TEST(BulkSchedule, MatchesIndividualSchedulesIncludingTies)
{
    // The same (when, insertion-order) stream through scheduleAt and
    // through bulkScheduleAt must execute identically — including the
    // heap-rebuild fast path, which the large batch below triggers.
    std::vector<std::pair<sim::Tick, int>> plan;
    for (int i = 0; i < 40; ++i)
        plan.emplace_back(static_cast<sim::Tick>((i * 7) % 10), i);

    auto execute = [&](bool bulk) {
        sim::EventQueue q;
        std::vector<int> order;
        q.scheduleAt(5, [&order] { order.push_back(-1); });
        if (bulk) {
            std::vector<sim::EventQueue::TimedEvent> batch;
            for (auto &[when, id] : plan) {
                int v = id;
                batch.push_back(
                    {when, [&order, v] { order.push_back(v); }});
            }
            q.bulkScheduleAt(batch);
            EXPECT_TRUE(batch.empty());
        } else {
            for (auto &[when, id] : plan) {
                int v = id;
                q.scheduleAt(when, [&order, v] { order.push_back(v); });
            }
        }
        q.run();
        return order;
    };

    std::vector<int> a = execute(false), b = execute(true);
    ASSERT_EQ(a.size(), plan.size() + 1);
    EXPECT_EQ(a, b);
}

// ==================================================================
// ParallelSimulator on a synthetic station ring.
// ==================================================================

/**
 * N stations in a ring; every handled message is logged and forwarded
 * to the next station one lookahead later, until its hop budget runs
 * out. The executed log stream is the determinism witness.
 */
struct MiniRing
{
    struct Msg
    {
        sim::Tick when = 0;
        unsigned src = 0;
        std::uint64_t seq = 0;
        unsigned hops = 0;
    };

    sim::Tick lookahead;
    std::vector<std::unique_ptr<sim::EventQueue>> queues;
    sim::Mailbox<Msg> mailbox;
    std::vector<std::uint64_t> seq;
    std::vector<std::vector<std::pair<sim::Tick, std::uint64_t>>> logs;

    MiniRing(unsigned n, sim::Tick la)
        : lookahead(la), mailbox(n), seq(n, 0), logs(n)
    {
        for (unsigned i = 0; i < n; ++i)
            queues.push_back(std::make_unique<sim::EventQueue>());
        for (unsigned i = 0; i < n; ++i) {
            Msg m{/*when=*/i + 1, i, seq[i]++, /*hops=*/24};
            queues[i]->scheduleAt(
                m.when, [this, i, m] { handle(i, m); });
        }
    }

    void
    handle(unsigned d, const Msg &m)
    {
        logs[d].emplace_back(m.when, (std::uint64_t{m.src} << 32) |
                                         m.seq);
        if (m.hops == 0)
            return;
        unsigned dst = (d + 1) % static_cast<unsigned>(queues.size());
        // Conservative stamp: at least one lookahead in the future
        // (a zero lookahead degenerates to same-tick rounds).
        mailbox.post(dst, Msg{queues[d]->now() + lookahead, d,
                              seq[d]++, m.hops - 1});
    }

    std::size_t
    drain(unsigned d)
    {
        std::vector<Msg> msgs;
        mailbox.drain(d, msgs);
        std::sort(msgs.begin(), msgs.end(),
                  [](const Msg &a, const Msg &b) {
                      return std::tie(a.when, a.src, a.seq) <
                             std::tie(b.when, b.src, b.seq);
                  });
        std::vector<sim::EventQueue::TimedEvent> batch;
        batch.reserve(msgs.size());
        for (const Msg &m : msgs)
            batch.push_back({m.when, [this, d, m] { handle(d, m); }});
        queues[d]->bulkScheduleAt(batch);
        return msgs.size();
    }

    sim::Tick
    run(unsigned jobs)
    {
        std::vector<sim::SimStation> stations;
        for (unsigned d = 0;
             d < static_cast<unsigned>(queues.size()); ++d)
            stations.push_back(
                {queues[d].get(), [this, d] { return drain(d); }});
        sim::ParallelSimulator psim(std::move(stations), lookahead,
                                    jobs);
        sim::Tick end = psim.run();
        EXPECT_GT(psim.windows(), 0u);
        EXPECT_GE(psim.lastJobs(), 1u);
        return end;
    }
};

TEST(ParallelSim, RingLogsIdenticalAcrossWorkerCounts)
{
    MiniRing a(4, sim::microseconds(1));
    sim::Tick ta = a.run(/*jobs=*/1);
    MiniRing b(4, sim::microseconds(1));
    sim::Tick tb = b.run(/*jobs=*/3);
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(a.logs, b.logs);
    // Every seeded message visited all 25 stations of its walk.
    std::size_t total = 0;
    for (const auto &l : a.logs)
        total += l.size();
    EXPECT_EQ(total, 4u * 25u);
}

TEST(ParallelSim, ZeroLookaheadSerializesWithoutDeadlock)
{
    MiniRing a(3, 0);
    sim::Tick ta = a.run(1);
    MiniRing b(3, 0);
    sim::Tick tb = b.run(4);
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(a.logs, b.logs);
}

TEST(ParallelSim, OneStationUnboundedLookaheadIsOneWindow)
{
    // One device crosses no fabric, so its lookahead is unbounded: the
    // first window [floor, kTickMax] runs the whole queue in time
    // order, exactly as EventQueue::run() would, at any worker count.
    for (unsigned jobs : {1u, 4u}) {
        sim::EventQueue q;
        std::vector<sim::Tick> ran;
        for (sim::Tick t : {sim::Tick{1000000000}, sim::Tick{1},
                            sim::Tick{5}})
            q.scheduleAt(t, [&ran, &q] { ran.push_back(q.now()); });
        sim::ParallelSimulator psim(
            {{&q, [] { return std::size_t{0}; }}}, sim::kTickMax, jobs);
        EXPECT_EQ(psim.run(), 1000000000u) << "jobs " << jobs;
        EXPECT_EQ(ran, (std::vector<sim::Tick>{1, 5, 1000000000}))
            << "jobs " << jobs;
        EXPECT_EQ(psim.windows(), 1u) << "jobs " << jobs;
    }
}

TEST(ParallelSim, EmptyStationsQuiesceImmediately)
{
    sim::EventQueue q;
    sim::ParallelSimulator psim({{&q, [] { return std::size_t{0}; }}},
                                sim::microseconds(1), 2);
    EXPECT_EQ(psim.run(), 0u);
}

// ==================================================================
// End-to-end: multi-device array runs are byte-identical across
// worker counts (metrics JSON, CSV row and Chrome trace).
// ==================================================================

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

    ~ArrayRig() { sim::SimExecutor::setDefaultJobs(0); }

    /** metrics JSON + CSV row + trace of one run at @p jobs. */
    struct Fingerprint
    {
        std::string json, csv, trace;
        std::uint64_t crossDevice = 0;
        bool ok = false;

        bool
        operator==(const Fingerprint &o) const
        {
            return json == o.json && csv == o.csv &&
                   trace == o.trace && crossDevice == o.crossDevice;
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
        fp.crossDevice = r.crossDevice;
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

TEST(ArrayDeterminism, TwoDevicesByteIdenticalAcrossJobCounts)
{
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 2;
    auto j1 = rig.run(topo, 1);
    auto j2 = rig.run(topo, 2);
    auto j8 = rig.run(topo, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_FALSE(j1.json.empty());
    EXPECT_FALSE(j1.trace.empty());
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j8);
}

TEST(ArrayDeterminism, EightDevicesByteIdenticalAcrossJobCounts)
{
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 8;
    auto j1 = rig.run(topo, 1);
    auto j2 = rig.run(topo, 2);
    auto j8 = rig.run(topo, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_GT(j1.crossDevice, 0u);
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j8);
}

TEST(ArrayDeterminism, ZeroP2pLatencyStillTerminatesAndMatches)
{
    // lookahead = p2pLatency = 0: the simulator degenerates to
    // serialized tick-stepped windows — slower, never wrong.
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 4;
    topo.p2pLatency = 0;
    auto j1 = rig.run(topo, 1);
    auto j4 = rig.run(topo, 4);
    EXPECT_TRUE(j1.ok);
    EXPECT_EQ(j1, j4);
}

TEST(ArrayDeterminism, RangePartitionCrossDeviceStressMatches)
{
    // Range partition on a hub-heavy graph maximizes cross-device
    // forwarding, so the mailbox path carries most of the traffic.
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 8;
    topo.partition = platforms::PartitionPolicy::Range;
    auto j1 = rig.run(topo, 1);
    auto j8 = rig.run(topo, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_GT(j1.crossDevice, 0u);
    EXPECT_EQ(j1, j8);
}

TEST(ArrayDeterminism, SingleDeviceUnaffectedByJobOverride)
{
    // devices = 1 runs its one queue in one unbounded window; the
    // result must be identical under any jobs setting.
    ArrayRig rig;
    platforms::TopologyConfig topo;
    topo.devices = 1;
    auto j1 = rig.run(topo, 1);
    auto j8 = rig.run(topo, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_EQ(j1.crossDevice, 0u);
    EXPECT_EQ(j1, j8);
}

} // namespace
