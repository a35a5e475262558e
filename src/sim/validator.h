/**
 * @file
 * Checked-build runtime validator for the conservative parallel
 * simulator's causality and lane-ownership contract (DESIGN.md §16).
 *
 * The determinism of a multi-device run rests on invariants the
 * compiler never sees: no event is scheduled into a queue's past, a
 * cross-device post is stamped at least one lookahead beyond its
 * sender's clock, each device's state is touched only by
 * the worker thread that owns its station for the current window,
 * and every queue pops timestamps monotonically inside the window
 * bounds. bgnlint's BGN006/BGN007 prove the lexical side; this class
 * proves the dynamic side by asserting each invariant at runtime and
 * aborting with device/event context on the first violation.
 *
 * Cost model: configuring with -DBGN_CHECKED=ON defines the
 * BGN_CHECKED macro globally, turning ::beacongnn::sim::kCheckedBuild
 * true; every hook call site in the hot paths (EventQueue,
 * ParallelSimulator, GnnEngine) sits under `if constexpr
 * (kCheckedBuild)`, so an OFF build compiles the hooks out entirely —
 * byte- and timing-neutral, enforced by the validator_overhead
 * micro-benchmark. The Validator class itself is always compiled so
 * tests can drive the assertions directly in any build.
 *
 * Threading: one Validator instance per simulation run (bench grids
 * run several simulations concurrently in one process, so this is
 * never a process-global). The driver opens/closes windows; workers
 * claim and release stations; hooks may fire from any claimed
 * thread.
 */

#ifndef BEACONGNN_SIM_VALIDATOR_H
#define BEACONGNN_SIM_VALIDATOR_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace beacongnn::sim {

#if defined(BGN_CHECKED)
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

/** Runtime causality/ownership assertions for one parallel run. */
class Validator
{
  public:
    /**
     * @param stations  Station (device) count of the run.
     * @param lookahead Minimum cross-station latency the driver
     *                  synchronizes with (the fabric's P2P latency).
     */
    Validator(std::size_t stations, Tick lookahead);

    Validator(const Validator &) = delete;
    Validator &operator=(const Validator &) = delete;

    // ---- driver protocol (ParallelSimulator) ----------------------
    /** A window [floor, limit] is about to run. Driver thread only. */
    void windowOpen(Tick floor, Tick limit);
    /** The window's stations have all quiesced. Driver thread only. */
    void windowClose();
    /** The calling thread takes station @p dev for this window.
     *  Aborts if another live thread still holds it. */
    void claimStation(unsigned dev);
    /** The calling thread hands station @p dev back. */
    void releaseStation(unsigned dev);

    // ---- invariant hooks (abort on violation) ---------------------
    /** EventQueue::scheduleAt on station @p dev: @p when must be
     *  >= @p now — an event scheduled into the queue's past would
     *  have been clamped, silently reordering history. */
    void onSchedule(unsigned dev, Tick when, Tick now);
    /** EventQueue::runUntil pop on station @p dev: timestamps are
     *  monotone per queue and confined to the open window, and only
     *  the claiming thread may pop. */
    void onPop(unsigned dev, Tick when);
    /** Cross-station post from @p src to @p dst (the engine's outbox
     *  append): the delivery stamp must be >= sender clock +
     *  lookahead or the conservative window could deliver work into
     *  a station's executed past. */
    void onCrossPost(unsigned src, unsigned dst, Tick when,
                     Tick srcNow);
    /** Arbitrary lane-owned touch of device @p dev (engine entry
     *  points): inside a window only the owning thread may call. */
    void onTouch(unsigned dev, const char *what);

    // ---- introspection --------------------------------------------
    /** Total invariant checks performed (all hooks). */
    std::uint64_t checks() const
    {
        return _checks.load(std::memory_order_relaxed);
    }
    Tick lookahead() const { return _lookahead; }
    std::size_t stations() const { return _slots.size(); }
    /** True between windowOpen() and windowClose(). */
    bool windowActive() const
    {
        return _active.load(std::memory_order_acquire);
    }

  private:
    /** Per-station ownership + pop history, line-padded so claims on
     *  neighbouring stations never false-share. */
    struct alignas(64) Slot
    {
        /** Hashed id of the claiming thread; 0 = unclaimed. */
        std::atomic<std::size_t> owner{0};
        Tick lastPop = 0;
    };

    [[noreturn]] void fail(unsigned dev, const char *what,
                           const char *detail, Tick a, Tick b);
    void count() { _checks.fetch_add(1, std::memory_order_relaxed); }
    static std::size_t threadKey();
    void checkOwner(unsigned dev, const char *what);

    std::vector<Slot> _slots;
    Tick _lookahead;
    std::atomic<bool> _active{false};
    Tick _floor = 0;
    Tick _limit = kTickMax;
    std::atomic<std::uint64_t> _checks{0};
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_VALIDATOR_H
