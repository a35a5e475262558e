#include "ssd/firmware.h"

#include <algorithm>

#include "sim/log.h"

namespace beacongnn::ssd {

Firmware::Firmware(const SystemConfig &cfg_)
    : cfg(cfg_),
      _issueCores(std::max(1u, cfg.controller.cores / 2), "fw-issue"),
      _completeCores(std::max(1u, cfg.controller.cores -
                                      cfg.controller.cores / 2),
                     "fw-complete"),
      _hostIo(std::max(1u, cfg.host.ioThreads), "host-io"),
      _dram(cfg.controller.dramMBps, "ssd-dram"),
      _pcie(cfg.host.pcieMBps, "pcie"), _ftl(cfg.flash)
{
}

FlushResult
Firmware::flushDirectGraph(sim::Tick start,
                           const dg::DirectGraphLayout &layout,
                           const graph::Graph &g,
                           const graph::FeatureTable &features,
                           flash::PageStore &store,
                           flash::FlashBackend &backend)
{
    FlushResult res;
    dg::AddressVerifier verifier(layout.blocks,
                                 cfg.flash.pagesPerBlock);
    std::vector<std::uint8_t> buf(cfg.flash.pageSize);
    sim::Tick finish = start;
    res.ok = true;

    // Ascending-PPA page order keeps the flush timing reproducible.
    layout.directory.forEachPage([&](flash::Ppa ppa,
                                     std::span<const dg::SectionPlacement>) {
        dg::encodePageImage(layout, g, features, ppa, buf);
        // §VI-E: destination and embedded addresses must stay inside
        // the reserved blocks.
        if (!verifier.pageImageSafe(ppa, buf, layout.featureDim) ||
            !_ftl.ppaReserved(ppa)) {
            ++res.pagesRejected;
            res.ok = false;
            return;
        }
        // Timing: host page image over PCIe, firmware verification on
        // a core, DMA into DRAM, backend program.
        sim::Grant link = _pcie.acquire(start, cfg.flash.pageSize);
        sim::Grant core = _issueCores.acquire(
            link.end, cfg.controller.coreIssueTime +
                          cfg.controller.ftlLookupTime);
        sim::Grant mem = _dram.acquire(core.end, cfg.flash.pageSize);
        flash::FlashOpTiming prog =
            backend.program(mem.end, ppa, cfg.flash.pageSize);
        finish = std::max(finish, prog.senseEnd);

        // Functional: land the bytes and record the ECC checksum.
        if (!store.program(ppa, buf))
            sim::panic("flushDirectGraph: destination page not erased");
        _ecc.onProgram(ppa, buf);
        ++res.pagesWritten;
    });
    res.finish = finish;
    return res;
}

ReclaimResult
Firmware::reclaimDirectGraph(sim::Tick start,
                             const dg::DirectGraphLayout &old_layout,
                             const graph::Graph &g,
                             const graph::FeatureTable &features,
                             flash::PageStore &store,
                             flash::FlashBackend &backend)
{
    ReclaimResult res;
    // Reserve clean blocks for the migrated copy.
    auto fresh = _ftl.reserveBlocks(old_layout.blocks.size() + 1);
    if (fresh.empty()) {
        sim::warn("reclaim: no free blocks for DirectGraph migration");
        return res;
    }
    // Rebuild the layout at the new location: this regenerates every
    // embedded physical address (§VI-F "updating the embedded
    // physical addresses to these new locations").
    res.layout = dg::buildLayout(g, features, cfg.flash, fresh);
    FlushResult flush = flushDirectGraph(start, res.layout, g, features,
                                         store, backend);
    if (!flush.ok) {
        sim::warn("reclaim: migrated flush failed verification");
        _ftl.releaseBlocks(fresh);
        return res;
    }
    // Erase old blocks and hand them back to regular FTL management.
    sim::Tick finish = flush.finish;
    for (flash::BlockId b : old_layout.blocks) {
        store.eraseBlock(b);
        _ecc.onErase(b, cfg.flash.pagesPerBlock);
        flash::FlashOpTiming er = backend.erase(flush.finish, b);
        finish = std::max(finish, er.senseEnd);
        ++res.blocksMigrated;
    }
    _ftl.releaseBlocks(old_layout.blocks);
    // Release the blocks the rebuild did not consume.
    std::vector<flash::BlockId> unused;
    for (flash::BlockId b : fresh) {
        if (std::find(res.layout.blocks.begin(), res.layout.blocks.end(),
                      b) == res.layout.blocks.end()) {
            unused.push_back(b);
        }
    }
    _ftl.releaseBlocks(unused);
    res.finish = finish;
    res.ok = true;
    return res;
}

ScrubReport
Firmware::scrub(const dg::DirectGraphLayout &layout, const graph::Graph &g,
                const graph::FeatureTable &features,
                flash::PageStore &store)
{
    return scrubBlocks(
        store, _ecc, layout.blocks, cfg.flash.pagesPerBlock,
        [&](flash::Ppa ppa, std::span<std::uint8_t> buf) {
            dg::encodePageImage(layout, g, features, ppa, buf);
        });
}

void
Firmware::publishMetrics(sim::MetricRegistry &reg) const
{
    reg.counter("ssd.firmware.core_busy").add(coreBusyTime());
    reg.counter("ssd.firmware.issue.busy_ticks")
        .add(_issueCores.busyTime());
    reg.counter("ssd.firmware.issue.requests")
        .add(_issueCores.requests());
    reg.counter("ssd.firmware.complete.busy_ticks")
        .add(_completeCores.busyTime());
    reg.counter("ssd.firmware.complete.requests")
        .add(_completeCores.requests());
    reg.counter("ssd.host_io.busy_ticks").add(_hostIo.busyTime());
    reg.counter("ssd.host_io.requests").add(_hostIo.requests());
    reg.counter("ssd.dram.busy_ticks").add(_dram.busyTime());
    reg.counter("ssd.dram.bytes").add(_dram.bytesMoved());
    reg.counter("ssd.pcie.busy_ticks").add(_pcie.busyTime());
    reg.counter("ssd.pcie.bytes").add(_pcie.bytesMoved());
    _ftl.publishMetrics(reg);
}

void
Firmware::resetStats()
{
    _issueCores.reset(std::max(1u, cfg.controller.cores / 2));
    _completeCores.reset(
        std::max(1u, cfg.controller.cores - cfg.controller.cores / 2));
    _hostIo.reset(std::max(1u, cfg.host.ioThreads));
    _dram.resetStats();
    _pcie.resetStats();
}

} // namespace beacongnn::ssd
