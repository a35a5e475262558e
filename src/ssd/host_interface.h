/**
 * @file
 * Host-side DirectGraph manipulation interface (§VI-A).
 *
 * The paper exposes the customized commands to the host "as
 * customized NVMe commands via the ioctl system call". This class is
 * that surface: each call is timed through an NVMe queue pair with
 * the corresponding vendor opcode and functionally delegated to the
 * firmware.
 *
 *   getBlockList  — fetch reserved physical blocks for DirectGraph
 *   setGnnConfig  — deliver model parameters / sampling configuration
 *   flushDirectGraph — stream verified page images to flash
 *
 * The fourth command, SubmitBatch, hands a mini-batch's targets to the
 * GNN engine, which charges it itself (GnnEngine::run).
 */

#ifndef BEACONGNN_SSD_HOST_INTERFACE_H
#define BEACONGNN_SSD_HOST_INTERFACE_H

#include "flash/onfi.h"
#include "ssd/firmware.h"
#include "ssd/nvme.h"

namespace beacongnn::ssd {

/** Timed + functional host handle to the BeaconGNN device. */
class HostInterface
{
  public:
    HostInterface(Firmware &fw_, const NvmeQueueConfig &qcfg = {})
        : fw(fw_), queue(qcfg)
    {
    }

    /**
     * Fetch @p count reserved blocks (vendor GetBlockList).
     * @param now       Submission time.
     * @param completion Optional out: queue-pair timing.
     */
    std::vector<flash::BlockId>
    getBlockList(sim::Tick now, std::uint64_t count,
                 NvmeCompletion *completion = nullptr)
    {
        auto blocks = fw.ftl().reserveBlocks(count);
        NvmeCommand cmd;
        cmd.op = NvmeOp::GetBlockList;
        cmd.bytes = static_cast<std::uint32_t>(blocks.size() * 4);
        // Device-side: firmware walks its allocation metadata.
        sim::Grant core = fw.coreIssue(
            now, fw.config().controller.ftlLookupTime *
                     std::max<std::uint64_t>(1, blocks.size() / 64));
        NvmeCompletion c = queue.submit(now, cmd, core.end - now);
        if (completion)
            *completion = c;
        return blocks;
    }

    /** Deliver the global GNN configuration (vendor SetGnnConfig). */
    NvmeCompletion
    setGnnConfig(sim::Tick now, const flash::GnnGlobalConfig &cfg)
    {
        lastConfig = cfg;
        NvmeCommand cmd;
        cmd.op = NvmeOp::SetGnnConfig;
        cmd.bytes = 16;
        sim::Grant core = fw.coreIssue(now);
        return queue.submit(now, cmd, core.end - now);
    }

    /** The most recent configuration the host delivered. */
    const flash::GnnGlobalConfig &gnnConfig() const { return lastConfig; }

    /**
     * Flush a DirectGraph through the manipulation interface: one
     * FlushDgPage vendor command per page (timed on the queue pair),
     * with verification and programming performed by the firmware.
     */
    FlushResult
    flushDirectGraph(sim::Tick now, const dg::DirectGraphLayout &layout,
                     const graph::Graph &g,
                     const graph::FeatureTable &features,
                     flash::PageStore &store,
                     flash::FlashBackend &backend)
    {
        // Queue-pair occupancy: every page is a vendor write command;
        // the device service is amortized into the firmware flush.
        NvmeCommand cmd;
        cmd.op = NvmeOp::FlushDgPage;
        cmd.bytes = fw.config().flash.pageSize;
        FlushResult res = fw.flushDirectGraph(now, layout, g, features,
                                              store, backend);
        const std::size_t pages = layout.directory.pageCount();
        sim::Tick per_page = pages == 0 ? 0 : (res.finish - now) / pages;
        NvmeCompletion last{};
        for (std::size_t i = 0; i < pages; ++i)
            last = queue.submit(now, cmd, per_page);
        res.finish = std::max(res.finish, last.completed);
        return res;
    }

    const NvmeQueuePair &nvme() const { return queue; }

  private:
    Firmware &fw;
    NvmeQueuePair queue;
    flash::GnnGlobalConfig lastConfig{};
};

} // namespace beacongnn::ssd

#endif // BEACONGNN_SSD_HOST_INTERFACE_H
