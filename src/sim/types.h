/**
 * @file
 * Fundamental scalar types and unit helpers for the BeaconGNN simulator.
 *
 * Simulated time is kept in integer nanoseconds (`Tick`). All byte
 * quantities are `uint64_t`. Helper constructors make configuration
 * tables read like the paper ("3 us read latency", "800 MB/s channel").
 */

#ifndef BEACONGNN_SIM_TYPES_H
#define BEACONGNN_SIM_TYPES_H

#include <cstdint>

namespace beacongnn::sim {

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "no time" / "never". */
inline constexpr Tick kTickMax = ~Tick{0};

/** @name Time constructors (all return nanoseconds) */
///@{
constexpr Tick nanoseconds(std::uint64_t n) { return n; }
constexpr Tick microseconds(std::uint64_t n) { return n * 1000ull; }
constexpr Tick milliseconds(std::uint64_t n) { return n * 1000000ull; }
constexpr Tick seconds(std::uint64_t n) { return n * 1000000000ull; }
///@}

/** Bytes in @p n KiB. */
constexpr std::uint64_t kib(std::uint64_t n) { return n * 1024ull; }

/**
 * Convert a bandwidth given in MB/s (decimal, as vendor datasheets quote
 * flash channel speeds) into the transfer time in ticks for @p bytes.
 *
 * @param bytes      Number of bytes transferred.
 * @param mbytes_per_s Bandwidth in 10^6 bytes per second.
 * @return Transfer duration in ticks (>= 1 for any nonzero transfer).
 */
constexpr Tick
transferTime(std::uint64_t bytes, double mbytes_per_s)
{
    if (bytes == 0 || mbytes_per_s <= 0.0)
        return 0;
    double ns = static_cast<double>(bytes) * 1000.0 / mbytes_per_s;
    Tick t = static_cast<Tick>(ns);
    return t == 0 ? 1 : t;
}

/** Convert ticks to (double) microseconds for reporting. */
constexpr double toMicros(Tick t) { return static_cast<double>(t) / 1000.0; }

/** Convert ticks to (double) milliseconds for reporting. */
constexpr double toMillis(Tick t)
{
    return static_cast<double>(t) / 1000000.0;
}

/** Convert ticks to (double) seconds for reporting. */
constexpr double toSeconds(Tick t)
{
    return static_cast<double>(t) / 1e9;
}

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_TYPES_H
