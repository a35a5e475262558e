/**
 * @file
 * In-SSD vertex/feature cache tier (DESIGN.md §14).
 *
 * BeaconGNN pays a flash sense for every sampled neighbour, but real
 * serving traffic is heavily skewed — the hot vertices of a power-law
 * graph are re-read constantly. The VertexCache models a slice of
 * device DRAM reserved for exactly that hot set: the engine probes it
 * before every sense (streaming: per DirectGraph section; barrier:
 * per physical page) and a hit is served on the short DRAM path with
 * no flash operation at all.
 *
 * Eviction policies sit behind one deterministic interface:
 *  - lru:   single recency list, classic LRU.
 *  - mslru: two-section (probation/protected) segmented LRU — a line
 *    enters probation on fill and is promoted on its first re-hit, so
 *    one-shot scans cannot flush the protected hot set.
 *  - fifo:  insertion order only; the degenerate baseline.
 *
 * Layout: each recency section is a std::list of lines, MRU at the
 * front, and an unordered_map maps a key to its line. A fill at
 * capacity rewrites the victim's list node and re-keys its map node
 * (unordered_map::extract, then insert) instead of freeing both and
 * allocating new ones, so once the cache has filled up it never
 * allocates.
 *
 * Determinism rules: every structure is an intrusive list spliced in
 * event order; the key index is an unordered_map used for point
 * lookups only and never iterated (bgnlint BGN002). One cache per
 * device, touched only from the owning device's event lane, so array
 * runs stay byte-identical for any BGN_JOBS (DESIGN.md §13/§14).
 */

#ifndef BEACONGNN_CACHE_VERTEX_CACHE_H
#define BEACONGNN_CACHE_VERTEX_CACHE_H

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.h"

namespace beacongnn::cache {

/** Eviction policy families of the device-DRAM cache tier. */
enum class CachePolicy : std::uint8_t
{
    Lru,   ///< Single recency list.
    MsLru, ///< Multi-section (probation/protected) segmented LRU.
    Fifo,  ///< Insertion order; the degenerate baseline.
};

/** Short display name ("lru", "mslru", "fifo"). */
const char *cachePolicyName(CachePolicy policy);

/** Lookup by display name (case-insensitive); empty when unknown. */
std::optional<CachePolicy> findCachePolicy(const std::string &name);

/** All policy display names, comma-separated (for CLI messages). */
std::string cachePolicyList();

/**
 * Cache tier sizing of one run. capacityMB = 0 (the default) disables
 * the tier entirely: no cache object is built, no instrument is
 * published, and every run stays byte-identical to the historical
 * cache-less simulator.
 */
struct CacheConfig
{
    /** Device DRAM reserved for the cache, in MiB per device. */
    double capacityMB = 0.0;
    CachePolicy policy = CachePolicy::Lru;
    /** Cache line granularity — one cached section/page occupies one
     *  line (4 KiB, a flash page, by default). */
    std::uint32_t lineBytes = 4096;

    bool enabled() const { return capacityMB > 0.0; }

    /** Capacity in lines (>= 1 whenever the tier is enabled). */
    std::uint64_t lines() const;
};

/** Hit/traffic tallies of one VertexCache (monotonic counters). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    /** Bytes currently resident (lines * lineBytes). */
    std::uint64_t bytes = 0;

    /** hits / (hits + misses); 0.0 when no access ran (never NaN —
     *  the PR 5 crossFraction 0/0 discipline). */
    double
    hitRate() const
    {
        const std::uint64_t accesses = hits + misses;
        return accesses == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(accesses);
    }

    void
    merge(const CacheStats &other)
    {
        hits += other.hits;
        misses += other.misses;
        fills += other.fills;
        evictions += other.evictions;
        bytes += other.bytes;
    }
};

/**
 * One device's DRAM-backed vertex/feature cache. Keys are opaque
 * 64-bit line identifiers — the streaming engine uses DirectGraph
 * section addresses, the barrier engine physical page addresses; the
 * two never mix within a run.
 */
class VertexCache
{
  public:
    /** @param cfg Sizing/policy; must be enabled() with lineBytes > 0. */
    explicit VertexCache(const CacheConfig &cfg);

    /**
     * Probe for @p key, counting a hit or a miss and touching the
     * line per the policy. @return the tick the line's fill completed
     * (data availability floor for the hit path); empty on a miss.
     */
    std::optional<sim::Tick> lookup(std::uint64_t key);

    /**
     * Insert @p key after its miss parsed at @p when, evicting per
     * the policy when at capacity. A key already resident is left
     * untouched (no double fill).
     */
    void fill(std::uint64_t key, sim::Tick when);

    const CacheStats &stats() const { return _stats; }
    const CacheConfig &config() const { return _cfg; }
    std::uint64_t capacityLines() const { return _capacity; }
    /** Lines currently resident. */
    std::uint64_t size() const { return _index.size(); }

  private:
    struct Line
    {
        std::uint64_t key;
        sim::Tick filledAt;
        /** Owning section index (0 = probation / the only section). */
        std::uint8_t section;
    };
    using LineList = std::list<Line>;

    /** Evict the policy's victim line (the cache must be full) and
     *  reuse its nodes for @p key, filled at @p when. */
    void replaceVictim(std::uint64_t key, sim::Tick when);

    CacheConfig _cfg;
    std::uint64_t _capacity;
    /** Recency sections, MRU at front. One section for lru/fifo; two
     *  for mslru (0 = probation, 1 = protected). */
    std::vector<LineList> _sections;
    /** Protected-section capacity (mslru; half the lines). */
    std::uint64_t _protectedCapacity = 0;
    /** Point-lookup index; never iterated (bgnlint BGN002). */
    std::unordered_map<std::uint64_t, LineList::iterator> _index;
    CacheStats _stats;
};

} // namespace beacongnn::cache

#endif // BEACONGNN_CACHE_VERTEX_CACHE_H
