/**
 * @file
 * Flash backend geometry and timing configuration.
 *
 * Defaults follow Table II of the paper: a 1 TB-class ULL (Z-NAND)
 * SSD with 16 channels x 8 dies, 4 KB pages, 3 us read (sense)
 * latency and 800 MB/s per-channel transfer rate. The traditional-SSD
 * configuration of Section VII-E only changes read_latency to 20 us.
 */

#ifndef BEACONGNN_FLASH_CONFIG_H
#define BEACONGNN_FLASH_CONFIG_H

#include <cstdint>

#include "sim/types.h"

namespace beacongnn::flash {

/** Physical organisation and timing of the flash backend. */
struct FlashConfig
{
    // ---- Geometry -------------------------------------------------
    unsigned channels = 16;       ///< Flash channels.
    unsigned diesPerChannel = 8;  ///< Dies per channel (chips collapsed).
    unsigned planesPerDie = 2;    ///< Planes per die.
    unsigned blocksPerPlane = 1024; ///< Blocks per plane.
    unsigned pagesPerBlock = 256; ///< Pages per block.
    std::uint32_t pageSize = 4096; ///< Page size in bytes.

    // ---- Timing ---------------------------------------------------
    sim::Tick readLatency = sim::microseconds(3);    ///< tR (ULL sense).
    sim::Tick programLatency = sim::microseconds(100); ///< tPROG.
    sim::Tick eraseLatency = sim::microseconds(1000);  ///< tBERS.
    double channelMBps = 800.0;   ///< Channel transfer rate (MB/s).
    /** Command/address cycle overhead per channel transaction. */
    sim::Tick commandOverhead = sim::nanoseconds(200);
    /** Dual cache/data registers: a die may sense the next page while
     *  the previous result drains over the channel (one outstanding
     *  transfer). Off = single-buffered, the paper's Fig. 6 regime. */
    bool dualRegister = false;

    // ---- Derived --------------------------------------------------
    unsigned totalDies() const { return channels * diesPerChannel; }

    std::uint64_t
    totalBlocks() const
    {
        return std::uint64_t{channels} * diesPerChannel * planesPerDie *
               blocksPerPlane;
    }

    std::uint64_t totalPages() const { return totalBlocks() * pagesPerBlock; }

    /** Time to move @p bytes over one channel (excl. command cycles). */
    sim::Tick
    channelTime(std::uint64_t bytes) const
    {
        return sim::transferTime(bytes, channelMBps);
    }

    /** Switch read timing to the traditional-SSD point of §VII-E. */
    FlashConfig
    asTraditional() const
    {
        FlashConfig c = *this;
        c.readLatency = sim::microseconds(20);
        return c;
    }
};

} // namespace beacongnn::flash

#endif // BEACONGNN_FLASH_CONFIG_H
