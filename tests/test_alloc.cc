/**
 * @file
 * Heap-allocation budget of the command paths (DESIGN.md §8).
 *
 * A steady-state batch allocates per batch, never per command: the
 * engine reuses its batch, lanes, sampler results and outboxes,
 * the page directory and the vertex cache are flat arrays, and the
 * draw buffers are fixed arrays. So once a session has run a warm-up
 * batch, a batch of 1,024 targets may allocate only a few more times
 * than one of 128 targets: the vectors that grow with the batch
 * double a few more times. A path that allocates per command shows up
 * as tens of thousands of extra allocations.
 *
 * This binary replaces the global operator new with a counting one,
 * so it is its own executable.
 */

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platforms/runner.h"
#include "sim/executor.h"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

// Not inlined: once a delete expression inlines std::free beside the
// operator new that made the pointer, GCC reports a new/free mismatch.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace beacongnn;
using namespace beacongnn::platforms;

/** Extra allocations a 1,024-target batch may make over a 128-target
 *  one: each vector that grows with the batch (lane fragments, event
 *  heaps, the subgraph, outboxes) doubles about three more
 *  times. Per-command allocation would exceed it by orders of
 *  magnitude. */
constexpr std::uint64_t kGrowthBudget = 48;

class AllocBudget : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // One worker: the count must not include thread start-up.
        sim::SimExecutor::setDefaultJobs(1);
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 4000;
        bundle = makeBundle(spec, sys.flash, model).release();
    }

    static void
    TearDownTestSuite()
    {
        delete bundle;
        bundle = nullptr;
        sim::SimExecutor::setDefaultJobs(0);
    }

    static std::vector<graph::NodeId>
    targets(std::size_t n, graph::NodeId salt)
    {
        const graph::NodeId nodes = bundle->graph.numNodes();
        std::vector<graph::NodeId> out(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<graph::NodeId>(
                (i * 7919u + salt) % nodes);
        return out;
    }

    struct Counts
    {
        std::uint64_t small = 0; ///< 128-target batch.
        std::uint64_t large = 0; ///< 1,024-target batch.
        std::uint64_t commands = 0;
        std::uint64_t evictions = 0; ///< engine.cache.evictions.
        std::uint64_t deduped = 0;   ///< engine.deduped_reads.
    };

    /** Warm up, then count one 128- and one 1,024-target batch. */
    static Counts
    measure(PlatformKind kind, const RunConfig &rc)
    {
        return measure(makePlatform(kind), rc);
    }

    static Counts
    measure(const PlatformConfig &platform, const RunConfig &rc)
    {
        PlatformSession session(platform, rc, *bundle);
        const auto warm = targets(128, 1);
        const auto small = targets(128, 2);
        const auto large = targets(1024, 3);
        session.runBatch(0, warm);
        Counts c;
        std::uint64_t before = gAllocs.load();
        session.runBatch(0, small);
        c.small = gAllocs.load() - before;
        before = gAllocs.load();
        session.runBatch(0, large);
        c.large = gAllocs.load() - before;
        RecordProperty("allocs_128_targets", std::to_string(c.small));
        RecordProperty("allocs_1024_targets", std::to_string(c.large));
        const RunResult r = session.finish();
        EXPECT_TRUE(r.ok);
        c.commands = r.commands;
        if (const sim::Counter *ev =
                session.metrics().findCounter("engine.cache.evictions"))
            c.evictions = ev->value();
        if (const sim::Counter *dd =
                session.metrics().findCounter("engine.deduped_reads"))
            c.deduped = dd->value();
        return c;
    }

    static WorkloadBundle *bundle;
};

WorkloadBundle *AllocBudget::bundle = nullptr;

TEST_F(AllocBudget, StreamingArrayAllocatesPerBatch)
{
    RunConfig rc;
    rc.topology.devices = 2;
    const Counts c = measure(PlatformKind::BG2, rc);
    ASSERT_GT(c.commands, 10000u);
    EXPECT_LE(c.large, c.small + kGrowthBudget)
        << "128 targets: " << c.small << ", 1024 targets: " << c.large;
}

TEST_F(AllocBudget, EvictingCacheAllocatesPerBatch)
{
    RunConfig rc;
    rc.topology.devices = 2;
    rc.cache.capacityMB = 1.0;
    rc.cache.policy = cache::CachePolicy::MsLru;
    const Counts c = measure(PlatformKind::BG2, rc);
    ASSERT_GT(c.commands, 10000u);
    ASSERT_GT(c.evictions, 0u) << "the 1 MiB cache must evict";
    EXPECT_LE(c.large, c.small + kGrowthBudget)
        << "128 targets: " << c.small << ", 1024 targets: " << c.large;
}

TEST_F(AllocBudget, DedupeAllocatesPerBatch)
{
    // Batch-level dedupe keeps a per-lane stamp per node, sized once:
    // a fetched primary section allocates nothing.
    PlatformConfig bg2 = makePlatform(PlatformKind::BG2);
    bg2.flags.dedupeNodes = true;
    RunConfig rc;
    rc.topology.devices = 2;
    const Counts c = measure(bg2, rc);
    ASSERT_GT(c.commands, 10000u);
    ASSERT_GT(c.deduped, 0u) << "the batches must repeat nodes";
    EXPECT_LE(c.large, c.small + kGrowthBudget)
        << "128 targets: " << c.small << ", 1024 targets: " << c.large;
}

TEST_F(AllocBudget, BarrierPathAllocatesPerBatch)
{
    const Counts c = measure(PlatformKind::CC, RunConfig{});
    ASSERT_GT(c.commands, 10000u);
    EXPECT_LE(c.large, c.small + kGrowthBudget)
        << "128 targets: " << c.small << ", 1024 targets: " << c.large;
}

} // namespace
