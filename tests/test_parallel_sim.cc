/**
 * @file
 * Conservative parallel simulation tests (DESIGN.md §13): the
 * SpinBarrier / ParallelSimulator primitives, the EventQueue
 * bulk-schedule fast path, the outbox walk that replaces a sorted
 * delivery, and — the property the whole
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
#include "sim/metrics.h"
#include "sim/parallel_sim.h"
#include "sim/rng.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;

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

TEST(BulkSchedule, OutboxWalkPopsInSortKeyOrder)
{
    // Three sources post to one station with colliding arrival stamps,
    // and the station already holds events at those stamps. Scheduling
    // the outboxes source by source, each in posting order, must pop
    // exactly as one batch sorted by (arrival, source, posting order)
    // does: the queue breaks timestamp ties by insertion order.
    struct Post
    {
        sim::Tick when;
        unsigned src;
        unsigned seq;
    };
    std::vector<Post> posts;
    sim::Pcg32 rng(7);
    for (unsigned src = 0; src < 3; ++src)
        for (unsigned seq = 0; seq < 40; ++seq)
            posts.push_back({10 + rng.below(6), src, seq});

    auto execute = [&](bool sorted) {
        sim::EventQueue q;
        std::vector<int> order;
        for (sim::Tick t : {sim::Tick{10}, sim::Tick{12}, sim::Tick{15}})
            q.scheduleAt(t, [&order] { order.push_back(-1); });
        auto event = [&order](const Post &p) {
            const int id = static_cast<int>(p.src * 100 + p.seq);
            return sim::EventQueue::TimedEvent{
                p.when, [&order, id] { order.push_back(id); }};
        };
        if (sorted) {
            std::vector<Post> keyed = posts;
            std::sort(keyed.begin(), keyed.end(),
                      [](const Post &a, const Post &b) {
                          return std::tie(a.when, a.src, a.seq) <
                                 std::tie(b.when, b.src, b.seq);
                      });
            std::vector<sim::EventQueue::TimedEvent> batch;
            for (const Post &p : keyed)
                batch.push_back(event(p));
            q.bulkScheduleAt(batch);
        } else {
            // `posts` holds each source's outbox in turn, in posting
            // order: the deliver hook's walk.
            std::vector<sim::EventQueue::TimedEvent> inbox;
            for (const Post &p : posts)
                inbox.push_back(event(p));
            q.bulkScheduleAt(inbox);
        }
        q.run();
        return order;
    };

    std::vector<int> walked = execute(false), sorted = execute(true);
    ASSERT_EQ(walked.size(), posts.size() + 3);
    EXPECT_EQ(walked, sorted);
}

// ==================================================================
// ParallelSimulator on a synthetic station ring.
// ==================================================================

/**
 * N stations in a ring; every handled message is logged and forwarded
 * to the next station one lookahead later, until its hop budget runs
 * out. A forward waits in the sender's outbox until the deliver hook
 * walks the outboxes in station order into the destinations' inboxes
 * and bulk-schedules those, as the engine's does. The executed log
 * stream is the determinism witness.
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
    /** outbox[src]: src's forwards this window, (destination, event). */
    std::vector<std::vector<std::pair<unsigned, sim::EventQueue::TimedEvent>>>
        outbox;
    std::vector<std::vector<sim::EventQueue::TimedEvent>> inbox;
    std::vector<std::uint64_t> seq;
    std::vector<std::vector<std::pair<sim::Tick, std::uint64_t>>> logs;

    MiniRing(unsigned n, sim::Tick la)
        : lookahead(la), outbox(n), inbox(n), seq(n, 0), logs(n)
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
        const Msg next{queues[d]->now() + lookahead, d, seq[d]++,
                       m.hops - 1};
        outbox[d].emplace_back(
            dst, sim::EventQueue::TimedEvent{
                     next.when, [this, dst, next] { handle(dst, next); }});
    }

    void
    deliver()
    {
        for (auto &from : outbox) {
            for (auto &[dst, ev] : from)
                inbox[dst].push_back(std::move(ev));
            from.clear();
        }
        for (std::size_t d = 0; d < queues.size(); ++d)
            queues[d]->bulkScheduleAt(inbox[d]);
    }

    sim::Tick
    run(unsigned jobs)
    {
        std::vector<sim::EventQueue *> stations;
        for (const auto &q : queues)
            stations.push_back(q.get());
        sim::ParallelSimulator psim(std::move(stations), lookahead,
                                    [this] { deliver(); }, jobs);
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
        sim::ParallelSimulator psim({&q}, sim::kTickMax, {}, jobs);
        EXPECT_EQ(psim.run(), 1000000000u) << "jobs " << jobs;
        EXPECT_EQ(ran, (std::vector<sim::Tick>{1, 5, 1000000000}))
            << "jobs " << jobs;
        EXPECT_EQ(psim.windows(), 1u) << "jobs " << jobs;
    }
}

TEST(ParallelSim, EmptyStationsQuiesceImmediately)
{
    sim::EventQueue q;
    sim::ParallelSimulator psim({&q}, sim::microseconds(1), {}, 2);
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
    // forwarding, so the outboxes carry most of the traffic.
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
