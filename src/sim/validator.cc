#include "sim/validator.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace beacongnn::sim {

Validator::Validator(std::size_t stations, Tick lookahead)
    : _slots(stations ? stations : 1), _lookahead(lookahead)
{
}

std::size_t
Validator::threadKey()
{
    std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return h ? h : 1; // 0 means "unclaimed".
}

void
Validator::fail(unsigned dev, const char *what, const char *detail,
                Tick a, Tick b)
{
    // fprintf, not iostreams: the abort must not allocate or lock
    // shared stream state while worker threads are mid-window.
    std::fprintf(stderr,
                 "BGN_CHECKED validator abort: device %u: %s: %s "
                 "(%llu vs %llu; window [%llu, %llu] %s; lookahead "
                 "%llu)\n",
                 dev, what, detail,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b),
                 static_cast<unsigned long long>(_floor),
                 static_cast<unsigned long long>(_limit),
                 _active.load(std::memory_order_relaxed) ? "open"
                                                         : "closed",
                 static_cast<unsigned long long>(_lookahead));
    std::abort();
}

void
Validator::checkOwner(unsigned dev, const char *what)
{
    if (!_active.load(std::memory_order_acquire))
        return; // Between windows the driver protocol serializes.
    if (dev >= _slots.size())
        fail(dev, what, "station index out of range", dev,
             _slots.size());
    std::size_t owner =
        _slots[dev].owner.load(std::memory_order_acquire);
    if (owner != threadKey())
        fail(dev, what,
             owner ? "foreign-thread touch of a claimed station"
                   : "touch of an unclaimed station inside a window",
             static_cast<Tick>(owner),
             static_cast<Tick>(threadKey()));
}

void
Validator::windowOpen(Tick floor, Tick limit)
{
    count();
    if (_active.load(std::memory_order_acquire))
        fail(0, "windowOpen", "previous window still open", floor,
             limit);
    _floor = floor;
    _limit = limit;
    _active.store(true, std::memory_order_release);
}

void
Validator::windowClose()
{
    count();
    if (!_active.load(std::memory_order_acquire))
        fail(0, "windowClose", "no window open", 0, 0);
    for (std::size_t d = 0; d < _slots.size(); ++d)
        if (_slots[d].owner.load(std::memory_order_acquire))
            fail(static_cast<unsigned>(d), "windowClose",
                 "station still claimed at window close", 0, 0);
    _active.store(false, std::memory_order_release);
}

void
Validator::claimStation(unsigned dev)
{
    count();
    if (dev >= _slots.size())
        fail(dev, "claimStation", "station index out of range", dev,
             _slots.size());
    std::size_t expect = 0;
    if (!_slots[dev].owner.compare_exchange_strong(
            expect, threadKey(), std::memory_order_acq_rel))
        fail(dev, "claimStation", "station already claimed", expect,
             threadKey());
}

void
Validator::releaseStation(unsigned dev)
{
    count();
    if (dev >= _slots.size())
        fail(dev, "releaseStation", "station index out of range", dev,
             _slots.size());
    std::size_t owner =
        _slots[dev].owner.load(std::memory_order_acquire);
    if (owner != threadKey())
        fail(dev, "releaseStation", "release by a non-owner thread",
             owner, threadKey());
    _slots[dev].owner.store(0, std::memory_order_release);
}

void
Validator::onSchedule(unsigned dev, Tick when, Tick now)
{
    count();
    if (when < now)
        fail(dev, "onSchedule",
             "event scheduled into the queue's past", when, now);
    checkOwner(dev, "onSchedule");
}

void
Validator::onPop(unsigned dev, Tick when)
{
    count();
    if (dev >= _slots.size())
        fail(dev, "onPop", "station index out of range", dev,
             _slots.size());
    checkOwner(dev, "onPop");
    Slot &s = _slots[dev];
    if (when < s.lastPop)
        fail(dev, "onPop", "event pop went backwards in time", when,
             s.lastPop);
    if (_active.load(std::memory_order_acquire) &&
        (when < _floor || when > _limit))
        fail(dev, "onPop", "event popped outside the open window",
             when, _limit);
    s.lastPop = when;
}

void
Validator::onCrossPost(unsigned src, unsigned dst, Tick when,
                       Tick srcNow)
{
    count();
    if (dst >= _slots.size())
        fail(dst, "onCrossPost", "destination out of range", dst,
             _slots.size());
    if (when < srcNow || when - srcNow < _lookahead)
        fail(src, "onCrossPost",
             "message stamped under the lookahead horizon", when,
             srcNow + _lookahead);
    checkOwner(src, "onCrossPost");
}

void
Validator::onTouch(unsigned dev, const char *what)
{
    count();
    checkOwner(dev, what);
}

} // namespace beacongnn::sim
