/**
 * @file
 * Unit tests for the discrete-event kernel, RNG, statistics and
 * analytic resource primitives.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/resources.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace {

using namespace beacongnn::sim;

TEST(Units, TimeConstructors)
{
    EXPECT_EQ(microseconds(3), 3000u);
    EXPECT_EQ(milliseconds(1), 1000000u);
    EXPECT_EQ(seconds(2), 2000000000u);
    EXPECT_DOUBLE_EQ(toMicros(1500), 1.5);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(4)), 4.0);
}

TEST(Units, TransferTime)
{
    // 800 MB/s: 4096 bytes take 5.12 us.
    EXPECT_EQ(transferTime(4096, 800.0), 5120u);
    // Zero bytes, zero time.
    EXPECT_EQ(transferTime(0, 800.0), 0u);
    // Tiny transfers still take at least one tick.
    EXPECT_GE(transferTime(1, 1e9), 1u);
}

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, StableAtEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        q.schedule(5, [&] {
            ++fired;
            EXPECT_EQ(q.now(), 15u);
        });
    });
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PastSchedulingClamps)
{
    EventQueue q;
    bool ran = false;
    q.schedule(10, [&] {
        q.scheduleAt(3, [&] {
            ran = true;
            EXPECT_EQ(q.now(), 10u);
        });
    });
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.runUntil(15);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(count, 2);
}

TEST(Rng, Deterministic)
{
    Pcg32 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Pcg32 rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowRoughlyUniform)
{
    Pcg32 rng(123);
    std::vector<int> counts(8, 0);
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(8)];
    for (int c : counts) {
        EXPECT_GT(c, draws / 8 - draws / 40);
        EXPECT_LT(c, draws / 8 + draws / 40);
    }
}

TEST(Rng, KeyedIsOrderIndependent)
{
    // Same key, same value, no matter how many times or when.
    auto a = keyedRandom(1, 2, 3, 4, 5);
    auto b = keyedRandom(1, 2, 3, 4, 5);
    EXPECT_EQ(a, b);
    // Different keys give different values (with high probability).
    EXPECT_NE(keyedRandom(1, 2, 3, 4, 5), keyedRandom(1, 2, 3, 4, 6));
    EXPECT_NE(keyedRandom(1, 2, 3, 4, 5), keyedRandom(1, 2, 3, 5, 5));
    EXPECT_NE(keyedRandom(1, 2, 3, 4, 5), keyedRandom(2, 2, 3, 4, 5));
}

TEST(Rng, KeyedBelowBounds)
{
    for (std::uint32_t draw = 0; draw < 500; ++draw)
        EXPECT_LT(keyedBelow(9, 1, 2, 3, draw, 13), 13u);
    EXPECT_EQ(keyedBelow(9, 1, 2, 3, 0, 1), 0u);
    EXPECT_EQ(keyedBelow(9, 1, 2, 3, 0, 0), 0u);
}

TEST(Stats, Accumulator)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.add(2.0);
    a.add(4.0);
    a.add(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Stats, AccumulatorMerge)
{
    Accumulator a, b;
    a.add(1.0);
    a.add(3.0);
    b.add(10.0);
    Accumulator m = merged(a, b);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_DOUBLE_EQ(m.sum(), 14.0);
    EXPECT_DOUBLE_EQ(m.min(), 1.0);
    EXPECT_DOUBLE_EQ(m.max(), 10.0);
}

TEST(Stats, HistogramQuantiles)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(90), 90.0, 2.0);
}

TEST(Stats, HistogramMergeAndClear)
{
    Histogram a(10.0, 8), b(10.0, 8);
    a.add(5.0);
    b.add(15.0);
    b.add(500.0); // Overflow bucket.
    a.merge(b);
    EXPECT_EQ(a.summary().count(), 3u);
    EXPECT_EQ(a.buckets()[0], 1u);
    EXPECT_EQ(a.buckets()[1], 1u);
    EXPECT_EQ(a.buckets()[7], 1u);
    a.clear();
    EXPECT_EQ(a.summary().count(), 0u);
    EXPECT_EQ(a.buckets().size(), 8u);
    EXPECT_EQ(a.buckets()[1], 0u);
}

TEST(StatsDeath, HistogramMergeRejectsAnotherGeometry)
{
    // Merging across geometries would have to drop the samples; it
    // panics and names both geometries instead. A moved-from
    // histogram has no buckets at all.
    Histogram a(10.0, 8);
    a.add(1.0);
    EXPECT_DEATH(a.merge(Histogram(10.0, 16)),
                 "geometry mismatch \\(16 buckets of 10.0+ into 8 "
                 "buckets of 10.0+\\)");
    EXPECT_DEATH(a.merge(Histogram(5.0, 8)), "geometry mismatch");
    Histogram moved(10.0, 8);
    Histogram keep = std::move(moved);
    EXPECT_DEATH(keep.merge(moved), "0 buckets");
}

TEST(Stats, IntervalTraceMergesContiguous)
{
    IntervalTrace t;
    t.add(0, 10);
    t.add(10, 20); // Contiguous: merged.
    t.add(30, 40);
    EXPECT_EQ(t.get().size(), 2u);
    EXPECT_EQ(t.busy(), 30u);
    EXPECT_EQ(t.busyWithin(5, 35), 20u);
}

TEST(Stats, ActiveSeries)
{
    IntervalTrace a, b;
    a.add(0, 100); // Busy in the whole window.
    b.add(0, 50);  // Busy in the first half.
    std::vector<const IntervalTrace *> traces = {&a, &b};
    auto series = activeSeries(traces, 100, 4);
    ASSERT_EQ(series.size(), 4u);
    EXPECT_DOUBLE_EQ(series[0], 2.0);
    EXPECT_DOUBLE_EQ(series[1], 2.0);
    EXPECT_DOUBLE_EQ(series[2], 1.0);
    EXPECT_DOUBLE_EQ(series[3], 1.0);
}

TEST(Resources, ServerPoolQueues)
{
    ServerPool pool(2);
    // Two servers: first two requests start immediately.
    Grant a = pool.acquire(0, 10);
    Grant b = pool.acquire(0, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 0u);
    // Third waits for the earliest server.
    Grant c = pool.acquire(0, 10);
    EXPECT_EQ(c.start, 10u);
    EXPECT_EQ(c.waited(0), 10u);
    EXPECT_EQ(pool.busyTime(), 30u);
    EXPECT_EQ(pool.requests(), 3u);
}

TEST(Resources, ServerPoolRespectsReadyTime)
{
    ServerPool pool(1);
    Grant a = pool.acquire(100, 10);
    EXPECT_EQ(a.start, 100u);
    Grant b = pool.acquire(50, 10); // Ready earlier, but queued behind.
    EXPECT_EQ(b.start, 110u);
}

TEST(Resources, BusSerializesAndTracks)
{
    Bus bus("b", true);
    Grant a = bus.acquire(0, 5);
    Grant b = bus.acquire(0, 5);
    EXPECT_EQ(a.end, 5u);
    EXPECT_EQ(b.start, 5u);
    EXPECT_EQ(bus.busyTime(), 10u);
    EXPECT_EQ(bus.intervals().busy(), 10u);
}

TEST(Resources, BusHoldUntil)
{
    Bus bus;
    bus.acquire(0, 5);
    bus.holdUntil(20);
    Grant g = bus.acquire(0, 5);
    EXPECT_EQ(g.start, 20u);
    // holdUntil adds no busy time.
    EXPECT_EQ(bus.busyTime(), 10u);
}

TEST(Resources, BandwidthResource)
{
    BandwidthResource bw(1000.0); // 1000 MB/s = 1 byte/ns.
    Grant a = bw.acquire(0, 1000);
    EXPECT_EQ(a.end, 1000u);
    Grant b = bw.acquire(500, 1000);
    EXPECT_EQ(b.start, 1000u);
    EXPECT_EQ(bw.bytesMoved(), 2000u);
}

TEST(Resources, UtilizationComputation)
{
    Bus bus;
    bus.acquire(0, 25);
    EXPECT_DOUBLE_EQ(bus.utilization(100), 0.25);
    ServerPool pool(4);
    pool.acquire(0, 100);
    EXPECT_DOUBLE_EQ(pool.utilization(100), 0.25);
}

} // namespace
