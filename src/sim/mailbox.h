/**
 * @file
 * Timestamped inter-station message queue for the conservative
 * parallel simulator (DESIGN.md §13).
 *
 * Stations (per-device event queues) must never schedule work
 * directly onto another station's queue — that queue may be mid-run
 * on another worker thread, and even under a lock the insertion order
 * would depend on thread scheduling. Instead a cross-station effect
 * is posted here as a message carrying its delivery timestamp; the
 * simulation driver drains each station's inbox at a window boundary,
 * sorts the messages by a deterministic key supplied by the caller,
 * and bulk-schedules them. The mailbox is mutex-sharded per
 * destination, so concurrent posters to different stations never
 * contend.
 */

#ifndef BEACONGNN_SIM_MAILBOX_H
#define BEACONGNN_SIM_MAILBOX_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/log.h"
#include "sim/types.h"
#include "sim/validator.h"

namespace beacongnn::sim {

/**
 * Per-destination message inbox. @p Message is caller-defined; the
 * caller owns the deterministic sort applied after drain() (typically
 * by (deliveryTime, sourceStation, sourceSequence)).
 *
 * Thread contract: post() may be called concurrently from any thread;
 * drain() takes the whole inbox under the same per-destination mutex.
 * The conservative driver only drains between windows, when no
 * station is running.
 */
template <typename Message>
class Mailbox
{
  public:
    explicit Mailbox(std::size_t stations) : slots(stations) {}

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    /** Enqueue @p msg for station @p dst. */
    void
    post(std::size_t dst, Message msg)
    {
        Slot &s = slots[dst];
        std::lock_guard<std::mutex> lock(s.mutex);
        s.inbox.push_back(std::move(msg));
        ++s.posted;
    }

    /**
     * Checked post: like post(), but carries the causality facts a
     * checked build (DESIGN.md §16) asserts — the message's delivery
     * stamp @p when must be at least one lookahead beyond the
     * sender's clock @p srcNow, and the calling thread must own
     * station @p src for the current window. An OFF build compiles
     * the check out and this is exactly post().
     */
    void
    post(std::size_t dst, Message msg, Tick when, unsigned src,
         Tick srcNow)
    {
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->onMailboxPost(
                    src, static_cast<unsigned>(dst), when, srcNow);
        }
        post(dst, std::move(msg));
    }

    /** Attach the checked-build validator (nullptr detaches). */
    void setValidator(Validator *v) { _validator = v; }

    /**
     * Take station @p dst's whole inbox (arrival order, unsorted) into
     * @p out, which must be empty. The inbox takes @p out's storage in
     * exchange, so a caller that drains into the same buffer every
     * window makes neither side allocate once both have grown.
     */
    void
    drain(std::size_t dst, std::vector<Message> &out)
    {
        if (!out.empty())
            panic("Mailbox::drain: the buffer still holds messages");
        Slot &s = slots[dst];
        std::lock_guard<std::mutex> lock(s.mutex);
        out.swap(s.inbox);
    }

    /** Messages ever posted to station @p dst (drained or not). */
    std::uint64_t
    posted(std::size_t dst) const
    {
        const Slot &s = slots[dst];
        std::lock_guard<std::mutex> lock(s.mutex);
        return s.posted;
    }

    std::size_t stations() const { return slots.size(); }

  private:
    /** Cache-line padded so two stations' locks never false-share. */
    struct alignas(64) Slot
    {
        mutable std::mutex mutex;
        std::vector<Message> inbox;
        std::uint64_t posted = 0;
    };

    std::vector<Slot> slots;
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    Validator *_validator = nullptr;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_MAILBOX_H
