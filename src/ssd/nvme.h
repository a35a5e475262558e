/**
 * @file
 * NVMe host interface model (§II-B2, Fig. 3) with the BeaconGNN
 * customized command set (§VI-A, §VI-D).
 *
 * The model is functional and timed:
 *  - submission/completion queue pairs with doorbell writes; the
 *    firmware I/O poller fetches entries and posts completions;
 *  - queue-depth-limited pipelining (commands overlap up to the
 *    queue depth, the paper's deep-queue NVMe behaviour);
 *  - the standard READ/WRITE opcodes drive the regular block path
 *    (ssd/io_path.h), while the vendor-specific opcodes implement the
 *    DirectGraph manipulation interface exposed through ioctl:
 *      GetBlockList   — fetch reserved physical blocks,
 *      FlushDgPage    — write one verified DirectGraph page,
 *      SetGnnConfig   — deliver model/sampling configuration.
 *    The fourth vendor command, SubmitBatch, hands a mini-batch of
 *    target addresses to the GNN engine, which charges it itself
 *    (GnnEngine::run).
 */

#ifndef BEACONGNN_SSD_NVME_H
#define BEACONGNN_SSD_NVME_H

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/resources.h"
#include "sim/types.h"
#include "ssd/config.h"

namespace beacongnn::ssd {

/** NVMe opcode space used by the model. */
enum class NvmeOp : std::uint8_t
{
    Read,         ///< Standard block read.
    Write,        ///< Standard block write.
    GetBlockList, ///< Vendor: fetch reserved DirectGraph blocks.
    FlushDgPage,  ///< Vendor: program one DirectGraph page.
    SetGnnConfig, ///< Vendor: global GNN configuration.
};

/** One submission-queue entry (timing-relevant fields only). */
struct NvmeCommand
{
    NvmeOp op = NvmeOp::Read;
    std::uint64_t lba = 0;      ///< Logical address (block ops).
    std::uint32_t bytes = 0;    ///< Payload size.
    std::uint64_t tag = 0;      ///< Caller correlation id.
};

/** Completion record. */
struct NvmeCompletion
{
    std::uint64_t tag = 0;
    bool ok = true;
    sim::Tick submitted = 0;  ///< Doorbell ring time.
    sim::Tick fetched = 0;    ///< Picked up by the I/O poller.
    sim::Tick completed = 0;  ///< CQ entry visible to the host.

    sim::Tick latency() const { return completed - submitted; }
};

/** Timing parameters of the queue-pair machinery. */
struct NvmeQueueConfig
{
    unsigned queueDepth = 32;
    /** Host-side submission cost (SQE build + doorbell MMIO). */
    sim::Tick submitCost = sim::nanoseconds(400);
    /** Poller fetch + parse of one SQE. */
    sim::Tick fetchCost = sim::nanoseconds(300);
    /** Completion posting + interrupt/poll delivery to the host. */
    sim::Tick completeCost = sim::nanoseconds(700);
};

/**
 * One submission/completion queue pair with an analytic timing model:
 * commands pipeline up to the queue depth; the device-side service
 * time for each command is supplied by the caller (it depends on what
 * the firmware does with the command).
 */
class NvmeQueuePair
{
  public:
    explicit NvmeQueuePair(const NvmeQueueConfig &cfg_ = {})
        : cfg(cfg_), slots(std::max(1u, cfg_.queueDepth))
    {
    }

    const NvmeQueueConfig &config() const { return cfg; }

    /**
     * Submit a command at @p now whose device-side service takes
     * @p device_service once fetched.
     *
     * @return Completion record with the full timing decomposition.
     */
    NvmeCompletion
    submit(sim::Tick now, const NvmeCommand &cmd,
           sim::Tick device_service)
    {
        NvmeCompletion done;
        done.tag = cmd.tag;
        // Host builds the SQE and rings the doorbell.
        sim::Grant sq = hostSide.acquire(now, cfg.submitCost);
        done.submitted = sq.end;
        // A free queue slot bounds the in-flight commands.
        sim::Grant slot = slots.acquire(
            done.submitted,
            cfg.fetchCost + device_service + cfg.completeCost);
        done.fetched = slot.start + cfg.fetchCost;
        done.completed = slot.end;
        ++_completed;
        _totalLatency += done.latency();
        return done;
    }

    std::uint64_t completedCount() const { return _completed; }

    /** Mean end-to-end latency of completed commands. */
    sim::Tick
    meanLatency() const
    {
        return _completed == 0 ? 0 : _totalLatency / _completed;
    }

  private:
    NvmeQueueConfig cfg;
    /** Host submission path is serialized (one submitting thread). */
    sim::Bus hostSide{"nvme-sq"};
    /** Queue slots bound the number of in-flight commands. */
    sim::ServerPool slots;
    std::uint64_t _completed = 0;
    sim::Tick _totalLatency = 0;
};

} // namespace beacongnn::ssd

#endif // BEACONGNN_SSD_NVME_H
