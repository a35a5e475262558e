/**
 * @file
 * Flash firmware model: the embedded cores (I/O poller + FTL + flash
 * scheduler threads of Fig. 3) as a multi-server queue, the SSD DRAM
 * port, plus the firmware services BeaconGNN adds — DirectGraph flush
 * with security verification (§VI-A/E), wear-levelling reclamation
 * (§VI-F), and idle-time data scrubbing.
 *
 * The core pool is the performance-critical piece: every backend
 * flash command on BG-1 … BG-DGSP platforms is serviced twice by a
 * core (issue + completion), which is Challenge 3's bottleneck; BG-2
 * bypasses it with the channel-level router.
 */

#ifndef BEACONGNN_SSD_FIRMWARE_H
#define BEACONGNN_SSD_FIRMWARE_H

#include <memory>

#include "directgraph/builder.h"
#include "directgraph/verify.h"
#include "flash/backend.h"
#include "flash/page_store.h"
#include "sim/metrics.h"
#include "sim/resources.h"
#include "ssd/config.h"
#include "ssd/ecc.h"
#include "ssd/ftl.h"

namespace beacongnn::ssd {

/** Result of flushing a DirectGraph into reserved blocks. */
struct FlushResult
{
    bool ok = false;              ///< All pages passed verification.
    sim::Tick finish = 0;         ///< Completion time of the flush.
    std::uint64_t pagesWritten = 0;
    std::uint64_t pagesRejected = 0; ///< Failed §VI-E checks.
};

/** Result of a wear-levelling reclamation (§VI-F). */
struct ReclaimResult
{
    bool ok = false;
    sim::Tick finish = 0;
    dg::DirectGraphLayout layout;  ///< Rebuilt at the new location.
    std::uint64_t blocksMigrated = 0;
};

/** The SSD firmware and its frontend hardware resources. */
class Firmware
{
  public:
    explicit Firmware(const SystemConfig &cfg);

    const SystemConfig &config() const { return cfg; }

    // ---- Timing resources ------------------------------------------
    /** Cores running the I/O poller / issue threads (Fig. 3). */
    sim::ServerPool &issueCores() { return _issueCores; }
    /** Cores running the completion / scheduler threads. */
    sim::ServerPool &completeCores() { return _completeCores; }
    sim::BandwidthResource &dram() { return _dram; }
    sim::BandwidthResource &pcie() { return _pcie; }
    Ftl &ftl() { return _ftl; }
    EccModel &ecc() { return _ecc; }

    /** Core service: issue one backend flash command. */
    sim::Grant
    coreIssue(sim::Tick ready, sim::Tick extra = 0)
    {
        return _issueCores.acquire(
            ready, cfg.controller.coreIssueTime + extra);
    }

    /** Core service: consume one backend completion. */
    sim::Grant
    coreComplete(sim::Tick ready, sim::Tick extra = 0)
    {
        return _completeCores.acquire(
            ready, cfg.controller.coreCompleteTime + extra);
    }

    /** Host software-stack service for one block I/O. */
    sim::Grant
    hostIoService(sim::Tick ready)
    {
        return _hostIo.acquire(ready, cfg.host.ioOverhead);
    }

    /** Total embedded-core busy time (both pools). */
    sim::Tick
    coreBusyTime() const
    {
        return _issueCores.busyTime() + _completeCores.busyTime();
    }

    // ---- DirectGraph services ---------------------------------------

    /**
     * Flush a DirectGraph to flash through the customized NVMe
     * manipulation interface: PCIe transfer of each page image,
     * firmware verification that destination and embedded addresses
     * stay inside the reserved blocks (§VI-E), program to flash, ECC
     * checksum recording. Functional content lands in @p store;
     * timing is charged to PCIe, cores and the backend.
     *
     * @param start    Flush begin time.
     * @param layout   DirectGraph layout (its blocks must have come
     *                 from this firmware's FTL reserve list).
     * @param g        Graph (for page-image encoding).
     * @param features Feature table.
     * @param store    Flash contents.
     * @param backend  Flash timing model.
     */
    FlushResult flushDirectGraph(sim::Tick start,
                                 const dg::DirectGraphLayout &layout,
                                 const graph::Graph &g,
                                 const graph::FeatureTable &features,
                                 flash::PageStore &store,
                                 flash::FlashBackend &backend);

    /**
     * Wear-levelling reclamation: migrate the DirectGraph to fresh
     * blocks (rebuilding the layout rewrites all embedded physical
     * addresses), erase and release the old blocks.
     */
    ReclaimResult reclaimDirectGraph(sim::Tick start,
                                     const dg::DirectGraphLayout &old_layout,
                                     const graph::Graph &g,
                                     const graph::FeatureTable &features,
                                     flash::PageStore &store,
                                     flash::FlashBackend &backend);

    /**
     * Idle-time data scrubbing over the DirectGraph blocks: verify
     * ECC, erase + re-program any block with errors (§VI-F).
     */
    ScrubReport scrub(const dg::DirectGraphLayout &layout,
                      const graph::Graph &g,
                      const graph::FeatureTable &features,
                      flash::PageStore &store);

    /**
     * Publish the frontend's instruments into @p reg under the `ssd.`
     * namespace (`ssd.firmware.*` core pools, `ssd.host_io.*`,
     * `ssd.dram.*`, `ssd.pcie.*`, `ssd.ftl.*`).
     */
    void publishMetrics(sim::MetricRegistry &reg) const;

    /** Reset frontend timing resources between runs. */
    void resetStats();

  private:
    SystemConfig cfg;
    sim::ServerPool _issueCores;
    sim::ServerPool _completeCores;
    sim::ServerPool _hostIo;
    sim::BandwidthResource _dram;
    sim::BandwidthResource _pcie;
    Ftl _ftl;
    EccModel _ecc;
};

} // namespace beacongnn::ssd

#endif // BEACONGNN_SSD_FIRMWARE_H
