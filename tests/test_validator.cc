/**
 * @file
 * sim::Validator tests (DESIGN.md §16): the checked-build causality
 * and lane-ownership assertions. The Validator class is compiled in
 * every build, so the death tests drive it directly and hold in OFF
 * builds too; the wiring tests prove the EventQueue and driver hooks
 * actually fire, and therefore only run when kCheckedBuild is true.
 * Each seeded negative is one invariant of the conservative parallel
 * simulator: no past schedules, lookahead-stamped cross posts,
 * window-scoped thread ownership, monotone in-window pops.
 */

#include <gtest/gtest.h>

#include <thread>

#include "sim/event_queue.h"
#include "sim/parallel_sim.h"
#include "sim/validator.h"

namespace {

using beacongnn::sim::EventQueue;
using beacongnn::sim::kCheckedBuild;
using beacongnn::sim::kTickMax;
using beacongnn::sim::ParallelSimulator;
using beacongnn::sim::Tick;
using beacongnn::sim::Validator;

// ==================================================================
// Compliant protocol: nothing aborts, every hook is counted.
// ==================================================================

TEST(Validator, CompliantWindowSequenceRunsClean)
{
    Validator v(2, 10);
    EXPECT_EQ(v.stations(), 2u);
    EXPECT_EQ(v.lookahead(), 10u);
    EXPECT_FALSE(v.windowActive());

    v.windowOpen(0, 99);
    EXPECT_TRUE(v.windowActive());
    v.claimStation(0);
    v.onSchedule(0, 50, 20);
    v.onPop(0, 20);
    v.onPop(0, 20); // Equal timestamps are fine (FIFO at a tick).
    v.onCrossPost(0, 1, 110, 99);
    v.onTouch(0, "engine");
    v.releaseStation(0);
    v.windowClose();
    EXPECT_FALSE(v.windowActive());
    EXPECT_EQ(v.checks(), 9u); // One per protocol call and hook.
}

TEST(Validator, TouchesBetweenWindowsAreSerializedByTheDriver)
{
    // With no window open the driver protocol guarantees exclusivity,
    // so ownership checks pass from any thread.
    Validator v(1, 1);
    v.onTouch(0, "drain");
    v.onSchedule(0, 5, 0);
    v.onPop(0, 5);
    EXPECT_EQ(v.checks(), 3u);
}

// ==================================================================
// Seeded negatives: each invariant aborts with context.
// ==================================================================

TEST(ValidatorDeath, SchedulingIntoTheQueuesPastAborts)
{
    Validator v(1, 1);
    EXPECT_DEATH(v.onSchedule(0, 5, 10),
                 "scheduled into the queue's past");
}

TEST(ValidatorDeath, ShortLookaheadCrossPostAborts)
{
    Validator v(2, 10);
    // Stamped 9 ticks out; the window protocol needs >= 10.
    EXPECT_DEATH(v.onCrossPost(0, 1, 14, 5),
                 "under the lookahead horizon");
}

TEST(ValidatorDeath, CrossPostStampBeforeSenderClockAborts)
{
    Validator v(2, 1);
    EXPECT_DEATH(v.onCrossPost(0, 1, 4, 5),
                 "under the lookahead horizon");
}

TEST(ValidatorDeath, ForeignThreadTouchAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            std::thread claimer([&v] { v.claimStation(0); });
            claimer.join();
            v.onTouch(0, "engine"); // Not the claiming thread.
        },
        "foreign-thread touch");
}

TEST(ValidatorDeath, UnclaimedTouchInsideAWindowAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.onTouch(0, "engine");
        },
        "unclaimed station inside a window");
}

TEST(ValidatorDeath, BackwardsPopAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.claimStation(0);
            v.onPop(0, 20);
            v.onPop(0, 10);
        },
        "went backwards in time");
}

TEST(ValidatorDeath, PopOutsideTheOpenWindowAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(50, 100);
            v.claimStation(0);
            v.onPop(0, 10);
        },
        "outside the open window");
}

TEST(ValidatorDeath, DoubleClaimAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.claimStation(0);
            v.claimStation(0);
        },
        "already claimed");
}

TEST(ValidatorDeath, WindowCloseWithAClaimedStationAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.claimStation(0);
            v.windowClose();
        },
        "still claimed at window close");
}

// ==================================================================
// Wiring: the hot-path hooks actually reach the validator. These
// only exist in BGN_CHECKED builds — OFF builds compile them out
// (that's the point), so the tests skip themselves there.
// ==================================================================

TEST(ValidatorWiring, EventQueuePastScheduleAborts)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "hooks compiled out (BGN_CHECKED=OFF)";
    EXPECT_DEATH(
        {
            EventQueue q;
            Validator v(1, 1);
            q.setValidator(&v, 0);
            q.scheduleAt(10, [] {});
            q.run(); // Clock now at 10.
            q.scheduleAt(5, [] {});
        },
        "scheduled into the queue's past");
}

TEST(ValidatorWiring, CompliantTrafficIsSilentInEveryBuild)
{
    // A legal cross-station post, checked at the post site as the
    // engine checks it and delivered by the driver's deliver hook,
    // never aborts, whatever the build; in checked builds the post,
    // the queues and the driver are also counted.
    EventQueue q0, q1;
    Validator v(2, 5);
    q0.setValidator(&v, 0);
    q1.setValidator(&v, 1);
    std::vector<EventQueue::TimedEvent> outbox;
    bool delivered = false;
    q0.scheduleAt(10, [&] {
        if constexpr (kCheckedBuild)
            v.onCrossPost(0, 1, /*when=*/15, q0.now());
        outbox.push_back({15, [&delivered] { delivered = true; }});
    });
    ParallelSimulator psim({&q0, &q1}, 5,
                           [&] { q1.bulkScheduleAt(outbox); }, 1);
    psim.setValidator(&v);
    EXPECT_EQ(psim.run(), 15u);
    EXPECT_TRUE(delivered);
    if (kCheckedBuild)
        EXPECT_GT(v.checks(), 0u);
    else
        EXPECT_EQ(v.checks(), 0u);
}

} // namespace
