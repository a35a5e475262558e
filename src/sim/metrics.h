/**
 * @file
 * Hierarchically named metric registry: the one instrumentation layer
 * every simulator component publishes into.
 *
 * Instruments are identified by dot-separated names following the
 * `layer.component[.index].instrument` scheme (DESIGN.md §10), e.g.
 * `flash.ch3.die5.sense_ticks`, `ssd.firmware.core_busy`,
 * `engine.router.frames_parsed`, `accel.macs`. Five instrument kinds
 * cover everything the figures need:
 *
 *  - Counter:       monotonic uint64 (events, ticks, bytes);
 *  - Gauge:         point-in-time double (utilization, peak depth);
 *  - Accumulator:   count/sum/min/max/mean of double samples;
 *  - Histogram:     fixed-width linear distribution;
 *  - IntervalTrace: busy spans over time (Fig. 15 inputs).
 *
 * A name maps to exactly one instrument kind for the lifetime of the
 * registry; re-requesting a name with a different kind is a fatal
 * configuration error. Lookup is get-or-create, so publishing sites
 * need no registration ceremony. Iteration order is the sorted name
 * order, which keeps every exported snapshot deterministic.
 */

#ifndef BEACONGNN_SIM_METRICS_H
#define BEACONGNN_SIM_METRICS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <variant>

#include "sim/stats.h"

namespace beacongnn::sim {

/** Monotonic event/tick/byte counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { v += n; }
    std::uint64_t value() const { return v; }
    void merge(const Counter &other) { v += other.v; }
    void clear() { v = 0; }

  private:
    std::uint64_t v = 0;
};

/** Point-in-time scalar; merge is last-write-wins. */
class Gauge
{
  public:
    void set(double x) { v = x; }
    double value() const { return v; }
    void merge(const Gauge &other) { v = other.v; }
    void clear() { v = 0; }

  private:
    double v = 0;
};

/** Per-session registry of named instruments. */
class MetricRegistry
{
  public:
    using Instrument =
        std::variant<Counter, Gauge, Accumulator, Histogram, IntervalTrace>;

    // ---- Get-or-create accessors -----------------------------------
    // fatal() if @p name already holds a different instrument kind.
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Accumulator &accum(const std::string &name);
    /** Geometry applies only on first creation. */
    Histogram &histogram(const std::string &name,
                         double bucket_width = 1000.0,
                         std::size_t buckets = 64);
    IntervalTrace &interval(const std::string &name);

    // ---- Read-only lookup (nullptr when absent or wrong kind) ------
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Accumulator *findAccum(const std::string &name) const;

    bool contains(const std::string &name) const;
    std::size_t size() const { return instruments.size(); }
    bool empty() const { return instruments.empty(); }
    void clear() { instruments.clear(); }

    /** Visit every instrument in sorted name order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[name, ins] : instruments)
            fn(name, ins);
    }

    /**
     * Fold @p other into this registry: counters add, accumulators
     * and histograms merge exactly, interval traces union their
     * spans, gauges take the other's value. Kind mismatches on a
     * shared name are fatal.
     */
    void merge(const MetricRegistry &other);

    /**
     * Like merge(), but every instrument of @p other lands under
     * `<prefix><name>` here (pass e.g. "array.dev0." to namespace one
     * device's snapshot inside an array-wide registry).
     */
    void merge(const MetricRegistry &other, const std::string &prefix);

    /** Human-readable kind name of an instrument. */
    static const char *kindName(const Instrument &ins);

    // ---- Snapshot export -------------------------------------------

    /**
     * Write the registry as one JSON object mapping each full name to
     * an instrument description (kind + values). Doubles are printed
     * with 17 significant digits so snapshots round-trip exactly.
     */
    void writeJson(std::ostream &os) const;

    /** CSV header matching writeCsv rows. @p prefix_header prepends
     *  extra caller columns (e.g. "platform,workload,"). */
    static void writeCsvHeader(std::ostream &os,
                               const std::string &prefix_header = "");

    /** One CSV row per instrument; @p row_prefix prepends the caller
     *  columns declared in the header. */
    void writeCsv(std::ostream &os,
                  const std::string &row_prefix = "") const;

  private:
    template <typename T>
    T &get(const std::string &name);

    std::map<std::string, Instrument> instruments;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_METRICS_H
