/**
 * @file
 * In-SSD vertex/feature cache tier tests (DESIGN.md §14): eviction
 * policy semantics (LRU recency, multi-section promotion/demotion,
 * FIFO insertion order), capacity-bound eviction, deterministic
 * stats, the node-reusing cache against a fresh-node oracle, the 0/0
 * hit-rate guard, Zipf target-stream determinism and skew,
 * capacityMB = 0 byte-identity with the cache-less simulator,
 * end-to-end hit accounting on both engine paths, and byte-identical
 * cache-enabled array runs across worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/vertex_cache.h"
#include "platforms/report.h"
#include "platforms/runner.h"
#include "serve/arrival.h"
#include "serve/serve.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/zipf.h"

namespace {

using namespace beacongnn;
using cache::CacheConfig;
using cache::CachePolicy;
using cache::CacheStats;
using cache::VertexCache;

/** Config with an exact line count: one line = 1 MiB. */
CacheConfig
linesConfig(std::uint64_t lines, CachePolicy policy)
{
    CacheConfig cfg;
    cfg.capacityMB = static_cast<double>(lines);
    cfg.lineBytes = 1u << 20;
    cfg.policy = policy;
    return cfg;
}

// ==================================================================
// Policy names and config plumbing.
// ==================================================================

TEST(CacheConfig, NamesRoundTripAndListIsStable)
{
    EXPECT_STREQ(cache::cachePolicyName(CachePolicy::Lru), "lru");
    EXPECT_STREQ(cache::cachePolicyName(CachePolicy::MsLru), "mslru");
    EXPECT_STREQ(cache::cachePolicyName(CachePolicy::Fifo), "fifo");
    EXPECT_EQ(cache::findCachePolicy("LRU"), CachePolicy::Lru);
    EXPECT_EQ(cache::findCachePolicy("MsLru"), CachePolicy::MsLru);
    EXPECT_EQ(cache::findCachePolicy("fifo"), CachePolicy::Fifo);
    EXPECT_FALSE(cache::findCachePolicy("nope").has_value());
    EXPECT_EQ(cache::cachePolicyList(), "lru, mslru, fifo");
}

TEST(CacheConfig, LineCountFromCapacity)
{
    CacheConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    cfg.capacityMB = 1.0; // 1 MiB of 4 KiB lines.
    EXPECT_TRUE(cfg.enabled());
    EXPECT_EQ(cfg.lines(), 256u);
    cfg.capacityMB = 0.001; // Rounds down to zero lines -> floor 1.
    EXPECT_EQ(cfg.lines(), 1u);
}

// ==================================================================
// Eviction policies.
// ==================================================================

TEST(CachePolicyTest, LruEvictsLeastRecentlyUsed)
{
    VertexCache c(linesConfig(3, CachePolicy::Lru));
    EXPECT_EQ(c.capacityLines(), 3u);
    c.fill(1, 10);
    c.fill(2, 20);
    c.fill(3, 30);
    EXPECT_EQ(c.lookup(1), std::optional<sim::Tick>(10)); // 1 is MRU.
    c.fill(4, 40); // Victim is 2, the least recently used.
    EXPECT_FALSE(c.lookup(2).has_value());
    EXPECT_TRUE(c.lookup(1).has_value());
    EXPECT_TRUE(c.lookup(3).has_value());
    EXPECT_TRUE(c.lookup(4).has_value());
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.size(), 3u);
}

TEST(CachePolicyTest, FifoIgnoresHitsAndEvictsOldestFill)
{
    VertexCache c(linesConfig(3, CachePolicy::Fifo));
    c.fill(1, 10);
    c.fill(2, 20);
    c.fill(3, 30);
    EXPECT_TRUE(c.lookup(1).has_value()); // Hit does not touch.
    c.fill(4, 40); // Victim is 1, the oldest fill.
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_TRUE(c.lookup(2).has_value());
    EXPECT_TRUE(c.lookup(3).has_value());
    EXPECT_TRUE(c.lookup(4).has_value());
}

TEST(CachePolicyTest, MsLruPromotionProtectsReHitLines)
{
    // Capacity 4 -> protected section holds 2 lines.
    VertexCache c(linesConfig(4, CachePolicy::MsLru));
    c.fill(1, 10);
    c.fill(2, 20);
    c.fill(3, 30);
    c.fill(4, 40);
    // Re-hits promote 2 then 1 into the protected section.
    EXPECT_TRUE(c.lookup(2).has_value());
    EXPECT_TRUE(c.lookup(1).has_value());
    // Probation now holds {4, 3} (MRU first); a new fill evicts the
    // probation LRU — 3 — while the protected lines survive.
    c.fill(5, 50);
    EXPECT_FALSE(c.lookup(3).has_value());
    EXPECT_TRUE(c.lookup(1).has_value());
    EXPECT_TRUE(c.lookup(2).has_value());
    EXPECT_TRUE(c.lookup(4).has_value()); // Promotes 4...
    // ...which overflows the protected section and demotes its LRU
    // (2) back to probation; the next fill then evicts probation's
    // LRU, which is 5 (2 re-entered probation at the MRU end).
    c.fill(6, 60);
    EXPECT_FALSE(c.lookup(5).has_value());
    EXPECT_TRUE(c.lookup(2).has_value());
}

TEST(CachePolicyTest, OneShotScanCannotFlushProtectedSet)
{
    // The segmented-LRU motivation: a long one-shot scan only churns
    // probation; promoted lines stay resident.
    VertexCache c(linesConfig(8, CachePolicy::MsLru));
    c.fill(100, 1);
    c.fill(101, 2);
    EXPECT_TRUE(c.lookup(100).has_value()); // Promote both.
    EXPECT_TRUE(c.lookup(101).has_value());
    for (std::uint64_t k = 0; k < 64; ++k)
        c.fill(1000 + k, 10 + static_cast<sim::Tick>(k));
    EXPECT_TRUE(c.lookup(100).has_value());
    EXPECT_TRUE(c.lookup(101).has_value());

    // Plain LRU flushes the pair under the same scan.
    VertexCache lru(linesConfig(8, CachePolicy::Lru));
    lru.fill(100, 1);
    lru.fill(101, 2);
    EXPECT_TRUE(lru.lookup(100).has_value());
    EXPECT_TRUE(lru.lookup(101).has_value());
    for (std::uint64_t k = 0; k < 64; ++k)
        lru.fill(1000 + k, 10 + static_cast<sim::Tick>(k));
    EXPECT_FALSE(lru.lookup(100).has_value());
    EXPECT_FALSE(lru.lookup(101).has_value());
}

TEST(CachePolicyTest, CapacityBoundAndByteAccounting)
{
    const std::uint64_t kLines = 16;
    for (CachePolicy p :
         {CachePolicy::Lru, CachePolicy::MsLru, CachePolicy::Fifo}) {
        VertexCache c(linesConfig(kLines, p));
        sim::Pcg32 rng(7, 11);
        for (int i = 0; i < 500; ++i) {
            std::uint64_t key = rng.below(64);
            if (!c.lookup(key))
                c.fill(key, static_cast<sim::Tick>(i));
            EXPECT_LE(c.size(), kLines);
            EXPECT_EQ(c.stats().bytes, c.size() * (1u << 20));
        }
        EXPECT_EQ(c.size(), kLines);
        EXPECT_EQ(c.stats().evictions, c.stats().fills - kLines);
    }
}

TEST(CachePolicyTest, RepeatedSequenceIsDeterministic)
{
    auto run = [] {
        VertexCache c(linesConfig(8, CachePolicy::MsLru));
        sim::Pcg32 rng(0xBEEF, 3);
        for (int i = 0; i < 2000; ++i) {
            std::uint64_t key = rng.below(40);
            if (!c.lookup(key))
                c.fill(key, static_cast<sim::Tick>(i));
        }
        return c.stats();
    };
    CacheStats a = run();
    CacheStats b = run();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_GT(a.hits, 0u);
    EXPECT_GT(a.evictions, 0u);
}

// ==================================================================
// Differential: the node-reusing cache against a fresh-node oracle.
// ==================================================================

/**
 * The vertex cache as it was before a fill at capacity reused the
 * victim's nodes: a std::list per recency section (MRU at the front)
 * behind an unordered_map index, where an eviction erases the victim
 * and the fill pushes and indexes a fresh line. Kept here as the
 * oracle of the eviction order.
 */
class ListCache
{
  public:
    ListCache(std::uint64_t capacity_, CachePolicy policy_)
        : capacity(capacity_), policy(policy_),
          sections(policy_ == CachePolicy::MsLru ? 2 : 1),
          protectedCapacity(policy_ == CachePolicy::MsLru
                                ? std::max<std::uint64_t>(1, capacity_ / 2)
                                : 0)
    {
    }

    std::optional<sim::Tick>
    lookup(std::uint64_t key)
    {
        auto it = index.find(key);
        if (it == index.end()) {
            ++stats.misses;
            return std::nullopt;
        }
        ++stats.hits;
        auto line = it->second;
        if (policy == CachePolicy::Lru) {
            sections[0].splice(sections[0].begin(), sections[0], line);
        } else if (policy == CachePolicy::MsLru) {
            Lines &prot = sections[1];
            prot.splice(prot.begin(), sections[line->section], line);
            line->section = 1;
            if (prot.size() > protectedCapacity) {
                auto demote = std::prev(prot.end());
                demote->section = 0;
                sections[0].splice(sections[0].begin(), prot, demote);
            }
        }
        return line->filledAt;
    }

    void
    fill(std::uint64_t key, sim::Tick when)
    {
        if (index.count(key) != 0)
            return;
        if (index.size() >= capacity) {
            Lines &from =
                !sections[0].empty() ? sections[0] : sections.back();
            index.erase(from.back().key);
            from.pop_back();
            ++stats.evictions;
            stats.bytes -= kLine;
        }
        sections[0].push_front(Line{key, when, 0});
        index.emplace(key, sections[0].begin());
        ++stats.fills;
        stats.bytes += kLine;
    }

    std::uint64_t size() const { return index.size(); }

    static constexpr std::uint64_t kLine = 1u << 20;
    CacheStats stats;

  private:
    struct Line
    {
        std::uint64_t key;
        sim::Tick filledAt;
        std::uint8_t section;
    };
    using Lines = std::list<Line>;

    std::uint64_t capacity;
    CachePolicy policy;
    std::vector<Lines> sections;
    std::uint64_t protectedCapacity;
    std::unordered_map<std::uint64_t, Lines::iterator> index;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.fills, want.fills);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.bytes, want.bytes);
}

TEST(CacheDifferential, ReusedNodesMatchFreshOracle)
{
    // Seeded key streams over every policy and capacities 1..64: half
    // the keys come from a hot set the size of the cache, half from a
    // range four times larger, and one access in eight fills without a
    // probe first (a resident key's fill is a no-op). Every lookup
    // must agree on hit or miss and on the fill tick, and the stats and
    // size must agree after every call.
    for (CachePolicy p :
         {CachePolicy::Lru, CachePolicy::MsLru, CachePolicy::Fifo}) {
        for (std::uint64_t lines = 1; lines <= 64; ++lines) {
            SCOPED_TRACE(std::string(cache::cachePolicyName(p)) + " x" +
                         std::to_string(lines));
            VertexCache cache(linesConfig(lines, p));
            ListCache oracle(lines, p);
            sim::Pcg32 rng(0xCAC4E + lines, static_cast<std::uint64_t>(p));
            const auto hot = static_cast<std::uint32_t>(lines);
            for (sim::Tick t = 0; t < 1500; ++t) {
                // Spread keys over the whole 64-bit space too, so the
                // index sees keys that share their low bits.
                const std::uint64_t key =
                    (rng.below(2) == 0 ? rng.below(hot)
                                       : rng.below(4 * hot + 3)) *
                    0x100000001ull;
                if (rng.below(8) == 0) {
                    cache.fill(key, t);
                    oracle.fill(key, t);
                } else {
                    const std::optional<sim::Tick> got = cache.lookup(key);
                    const std::optional<sim::Tick> want =
                        oracle.lookup(key);
                    ASSERT_EQ(got, want) << "key " << key << " at " << t;
                    if (!got) {
                        cache.fill(key, t);
                        oracle.fill(key, t);
                    }
                }
                ASSERT_EQ(cache.size(), oracle.size());
                expectSameStats(cache.stats(), oracle.stats);
            }
            EXPECT_EQ(cache.size(), std::min<std::uint64_t>(
                                       lines, oracle.stats.fills));
        }
    }
}

// ==================================================================
// Hit-rate 0/0 guard (the PR 5 crossFraction discipline).
// ==================================================================

TEST(CacheStatsTest, HitRateGuardsZeroOverZero)
{
    CacheStats s;
    EXPECT_EQ(s.hitRate(), 0.0); // Not NaN.
    s.hits = 3;
    s.misses = 1;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.75);
    CacheStats merged;
    merged.merge(s);
    merged.merge(CacheStats{});
    EXPECT_DOUBLE_EQ(merged.hitRate(), 0.75);
}

// ==================================================================
// Zipf target distribution.
// ==================================================================

TEST(ZipfTest, DeterministicAndSkewed)
{
    sim::ZipfSampler z(1.0, 100);
    EXPECT_EQ(z.ranks(), 100u);
    sim::Pcg32 rng(42, 1);
    std::vector<std::uint64_t> counts(100, 0);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t r = z.draw(rng);
        ASSERT_LT(r, 100u);
        ++counts[r];
    }
    // Zipf(1) over 100 ranks: rank 0 carries ~19% of the mass, far
    // above the 1% a uniform draw would give, and the tail decays.
    EXPECT_GT(counts[0], counts[50] * 5);
    EXPECT_GT(counts[0], 2000u);

    sim::Pcg32 rng2(42, 1);
    for (int i = 0; i < 100; ++i) {
        sim::Pcg32 probe = rng2; // Same state -> same draw.
        std::uint64_t a = z.draw(probe);
        std::uint64_t b = z.draw(rng2);
        EXPECT_EQ(a, b);
    }
}

TEST(ZipfTest, ArrivalStreamsAreDeterministicAndSkewAware)
{
    serve::ArrivalConfig cfg;
    cfg.requests = 4000;
    cfg.zipfTheta = 0.99;
    auto a = serve::generateArrivals(cfg, 10000);
    auto b = serve::generateArrivals(cfg, 10000);
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t hot = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        if (a[i].target < 100)
            ++hot;
    }
    // The hottest 1% of nodes draw far more than 1% of the traffic.
    EXPECT_GT(hot, a.size() / 5);

    // theta = 0 keeps the historical uniform stream: same seed, no
    // comparable concentration on the low ids.
    serve::ArrivalConfig uniform = cfg;
    uniform.zipfTheta = 0.0;
    auto u = serve::generateArrivals(uniform, 10000);
    std::uint64_t uniform_hot = 0;
    for (const auto &r : u)
        if (r.target < 100)
            ++uniform_hot;
    EXPECT_LT(uniform_hot, hot / 4);
}

// ==================================================================
// End-to-end: engine integration, metrics, determinism.
// ==================================================================

struct CacheRig
{
    std::unique_ptr<platforms::WorkloadBundle> bundle;
    platforms::RunConfig rc;

    CacheRig()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 4000;
        bundle = platforms::makeBundle(spec, sys.flash, model);
        rc.batchSize = 32;
        rc.batches = 2;
    }

    ~CacheRig() { sim::SimExecutor::setDefaultJobs(0); }

    /** Metrics JSON + result CSV of one run. */
    std::pair<std::string, std::string>
    fingerprint(platforms::PlatformKind kind,
                const platforms::RunConfig &cfg)
    {
        sim::MetricRegistry reg;
        platforms::RunResult r =
            platforms::runPlatform(platforms::makePlatform(kind), cfg,
                                   *bundle, &reg);
        std::ostringstream json, csv;
        reg.writeJson(json);
        platforms::writeCsvRow(csv, r);
        return {json.str(), csv.str()};
    }
};

TEST(CacheEndToEnd, DisabledCacheIsByteIdenticalToDefaultRun)
{
    // capacityMB = 0 must not even construct the tier: the metrics
    // JSON and result row match a default-config run byte for byte.
    CacheRig rig;
    platforms::RunConfig zeroed = rig.rc;
    zeroed.cache.capacityMB = 0.0;
    zeroed.cache.policy = CachePolicy::MsLru; // Irrelevant when off.
    auto base = rig.fingerprint(platforms::PlatformKind::BG2, rig.rc);
    auto off = rig.fingerprint(platforms::PlatformKind::BG2, zeroed);
    EXPECT_EQ(base.first, off.first);
    EXPECT_EQ(base.second, off.second);
    EXPECT_EQ(base.first.find("engine.cache"), std::string::npos);
}

TEST(CacheEndToEnd, StreamingHitsSaveFlashReads)
{
    CacheRig rig;
    rig.rc.zipfTheta = 0.99; // Skewed targets revisit hot vertices.
    platforms::RunConfig cached = rig.rc;
    cached.cache.capacityMB = 16.0;

    sim::MetricRegistry reg_off, reg_on;
    platforms::RunResult off = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), rig.rc,
        *rig.bundle, &reg_off);
    platforms::RunResult on = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), cached,
        *rig.bundle, &reg_on);
    ASSERT_TRUE(off.ok);
    ASSERT_TRUE(on.ok);
    EXPECT_GT(reg_on.counter("engine.cache.hits").value(), 0u);
    EXPECT_GT(reg_on.gauge("engine.cache.hit_rate").value(), 0.0);
    EXPECT_LT(on.tally.flashReads, off.tally.flashReads);
    // Every probe is accounted: hits + misses covers all fills.
    EXPECT_GE(reg_on.counter("engine.cache.misses").value(),
              reg_on.counter("engine.cache.fills").value());
    // The functional result is unchanged — caching is a timing tier
    // and sampling is keyed, not timing-dependent.
    EXPECT_EQ(on.lastSubgraph.size(), off.lastSubgraph.size());
}

TEST(CacheEndToEnd, BarrierPathHitsOnConventionalPlatform)
{
    // CC reads the feature table per visit; with a skewed target
    // stream the hot pages re-hit across batches.
    CacheRig rig;
    rig.rc.zipfTheta = 0.99;
    rig.rc.batches = 4;
    platforms::RunConfig cached = rig.rc;
    cached.cache.capacityMB = 64.0;

    sim::MetricRegistry reg_off, reg_on;
    platforms::RunResult off = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::CC), rig.rc,
        *rig.bundle, &reg_off);
    platforms::RunResult on = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::CC), cached,
        *rig.bundle, &reg_on);
    ASSERT_TRUE(off.ok);
    ASSERT_TRUE(on.ok);
    EXPECT_GT(reg_on.counter("engine.cache.hits").value(), 0u);
    EXPECT_LT(on.tally.flashReads, off.tally.flashReads);
    // Barrier hits stay host-visible commands.
    EXPECT_EQ(on.commands, off.commands);
}

TEST(CacheEndToEnd, CacheEnabledArrayByteIdenticalAcrossJobCounts)
{
    CacheRig rig;
    rig.rc.cache.capacityMB = 8.0;
    rig.rc.cache.policy = CachePolicy::MsLru;
    rig.rc.zipfTheta = 0.9;
    rig.rc.topology.devices = 8;

    auto run = [&](unsigned jobs) {
        sim::SimExecutor::setDefaultJobs(jobs);
        return rig.fingerprint(platforms::PlatformKind::BG2, rig.rc);
    };
    auto j1 = run(1);
    auto j2 = run(2);
    auto j8 = run(8);
    EXPECT_FALSE(j1.first.empty());
    EXPECT_NE(j1.first.find("engine.cache.hits"), std::string::npos);
    EXPECT_NE(j1.first.find("array.dev0.cache.hits"),
              std::string::npos);
    EXPECT_NE(j1.first.find("array.dev7.cache.hit_rate"),
              std::string::npos);
    EXPECT_EQ(j1.first, j2.first);
    EXPECT_EQ(j1.first, j8.first);
    EXPECT_EQ(j1.second, j2.second);
    EXPECT_EQ(j1.second, j8.second);
}

TEST(CacheEndToEnd, CrossFractionCountsShortPathHits)
{
    // A dedupe or cache hit issues no flash command, yet its children
    // cross the fabric like any other command's: the fraction divides
    // the forwards by every issued command, hits included, so it never
    // exceeds 1.
    CacheRig rig;
    rig.rc.cache.capacityMB = 4.0;
    rig.rc.cache.policy = CachePolicy::MsLru;
    rig.rc.zipfTheta = 0.99;
    rig.rc.topology.devices = 8;
    platforms::PlatformConfig bg2 =
        platforms::makePlatform(platforms::PlatformKind::BG2);
    bg2.flags.dedupeNodes = true;
    auto issuedShare = [](const sim::MetricRegistry &reg) {
        const std::uint64_t issued =
            reg.findCounter("engine.commands")->value() +
            reg.findCounter("engine.deduped_reads")->value() +
            reg.findCounter("engine.cache.hits")->value();
        return static_cast<double>(
                   reg.findCounter("array.cross_device")->value()) /
               static_cast<double>(issued);
    };

    sim::MetricRegistry reg;
    platforms::RunResult r =
        platforms::runPlatform(bg2, rig.rc, *rig.bundle, &reg);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(reg.findCounter("engine.cache.hits")->value(), 0u);
    EXPECT_GT(reg.findCounter("engine.deduped_reads")->value(), 0u);
    EXPECT_LE(r.crossFraction, 1.0);
    EXPECT_DOUBLE_EQ(r.crossFraction, issuedShare(reg));
    EXPECT_DOUBLE_EQ(reg.findGauge("array.cross_fraction")->value(),
                     r.crossFraction);

    serve::ServeConfig sc;
    sc.arrivals.ratePerSec = 4000;
    sc.arrivals.requests = 256;
    sc.arrivals.zipfTheta = 0.99;
    sim::MetricRegistry serve_reg;
    serve::ServeResult s = serve::serveWorkload(
        bg2, rig.rc, *rig.bundle, sc, nullptr, &serve_reg);
    ASSERT_TRUE(s.ok);
    EXPECT_GT(serve_reg.findCounter("engine.cache.hits")->value(), 0u);
    EXPECT_LE(s.crossFraction, 1.0);
    EXPECT_DOUBLE_EQ(s.crossFraction, issuedShare(serve_reg));
}

} // namespace
