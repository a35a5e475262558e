#include "cache/vertex_cache.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <utility>

#include "sim/log.h"

namespace beacongnn::cache {

const char *
cachePolicyName(CachePolicy policy)
{
    switch (policy) {
      case CachePolicy::Lru: return "lru";
      case CachePolicy::MsLru: return "mslru";
      case CachePolicy::Fifo: return "fifo";
    }
    return "?";
}

std::optional<CachePolicy>
findCachePolicy(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    for (CachePolicy p : {CachePolicy::Lru, CachePolicy::MsLru,
                          CachePolicy::Fifo}) {
        if (lower == cachePolicyName(p))
            return p;
    }
    return std::nullopt;
}

std::string
cachePolicyList()
{
    std::string out;
    for (CachePolicy p : {CachePolicy::Lru, CachePolicy::MsLru,
                          CachePolicy::Fifo}) {
        if (!out.empty())
            out += ", ";
        out += cachePolicyName(p);
    }
    return out;
}

std::uint64_t
CacheConfig::lines() const
{
    if (!enabled())
        return 0;
    if (lineBytes == 0)
        sim::fatal("CacheConfig: lineBytes must be positive");
    auto n = static_cast<std::uint64_t>(capacityMB * 1024.0 * 1024.0 /
                                        static_cast<double>(lineBytes));
    return std::max<std::uint64_t>(1, n);
}

VertexCache::VertexCache(const CacheConfig &cfg)
    : _cfg(cfg), _capacity(cfg.lines())
{
    if (_capacity == 0)
        sim::fatal("VertexCache: constructed with a disabled config");
    _sections.resize(_cfg.policy == CachePolicy::MsLru ? 2 : 1);
    if (_cfg.policy == CachePolicy::MsLru)
        _protectedCapacity = std::max<std::uint64_t>(1, _capacity / 2);
    _index.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(_capacity, 1u << 20)));
}

std::optional<sim::Tick>
VertexCache::lookup(std::uint64_t key)
{
    auto it = _index.find(key);
    if (it == _index.end()) {
        ++_stats.misses;
        return std::nullopt;
    }
    ++_stats.hits;
    LineList::iterator line = it->second;
    const sim::Tick filled = line->filledAt;
    switch (_cfg.policy) {
      case CachePolicy::Fifo:
        break; // Insertion order is never disturbed.
      case CachePolicy::Lru:
        _sections[0].splice(_sections[0].begin(), _sections[0], line);
        break;
      case CachePolicy::MsLru: {
        // A re-hit proves the line is hot: promote it to the
        // protected section's MRU end. When the protected section
        // overflows, its LRU line is demoted back to probation's MRU
        // end (it keeps a second chance before eviction).
        LineList &prot = _sections[1];
        prot.splice(prot.begin(), _sections[line->section], line);
        line->section = 1;
        if (prot.size() > _protectedCapacity) {
            LineList::iterator demote = std::prev(prot.end());
            demote->section = 0;
            _sections[0].splice(_sections[0].begin(), prot, demote);
        }
        break;
      }
    }
    return filled;
}

void
VertexCache::fill(std::uint64_t key, sim::Tick when)
{
    if (_index.count(key) != 0)
        return;
    if (_index.size() >= _capacity) {
        replaceVictim(key, when);
    } else {
        _sections[0].push_front(Line{key, when, 0});
        _index.emplace(key, _sections[0].begin());
    }
    ++_stats.fills;
    _stats.bytes += _cfg.lineBytes;
}

void
VertexCache::replaceVictim(std::uint64_t key, sim::Tick when)
{
    // Victim: the LRU end of probation; of the protected section only
    // when probation is empty (mslru keeps probation non-empty almost
    // always since fills land there). Deterministic — pure list order.
    // The new line takes over the victim's list node at probation's
    // MRU end, and its index node under the new key; the spliced
    // iterator the node maps to stays valid.
    LineList &from =
        !_sections[0].empty() ? _sections[0] : _sections.back();
    const LineList::iterator victim = std::prev(from.end());
    auto node = _index.extract(victim->key);
    *victim = Line{key, when, 0};
    _sections[0].splice(_sections[0].begin(), from, victim);
    node.key() = key;
    _index.insert(std::move(node));
    ++_stats.evictions;
    _stats.bytes -= _cfg.lineBytes;
}

} // namespace beacongnn::cache
