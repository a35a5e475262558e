/**
 * @file
 * Statistics primitives: scalar accumulators, histograms, and busy-
 * interval traces used to regenerate the paper's utilization figures.
 */

#ifndef BEACONGNN_SIM_STATS_H
#define BEACONGNN_SIM_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/log.h"
#include "sim/types.h"

namespace beacongnn::sim {

/** Streaming accumulator: count / sum / min / max / mean. */
class Accumulator
{
  public:
    void
    add(double v)
    {
        ++_count;
        _sum += v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    void
    clear()
    {
        _count = 0;
        _sum = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

    /** Exact in-place merge of another accumulator. */
    void
    merge(const Accumulator &other)
    {
        _count += other._count;
        _sum += other._sum;
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }

    /** Exact merge of two accumulators. */
    friend Accumulator
    merged(const Accumulator &a, const Accumulator &b)
    {
        Accumulator m = a;
        m.merge(b);
        return m;
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** Fixed-width linear histogram for latency distributions. */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (same unit as samples).
     * @param buckets      Number of buckets; overflow goes to the last.
     */
    explicit Histogram(double bucket_width = 1000.0,
                       std::size_t buckets = 64)
        : width(bucket_width), counts(buckets, 0)
    {
    }

    void
    add(double v)
    {
        acc.add(v);
        auto idx = static_cast<std::size_t>(std::max(0.0, v) / width);
        if (idx >= counts.size())
            idx = counts.size() - 1;
        ++counts[idx];
    }

    const std::vector<std::uint64_t> &buckets() const { return counts; }
    double bucketWidth() const { return width; }
    const Accumulator &summary() const { return acc; }

    /** Forget every sample, keeping the geometry (and the buckets'
     *  storage). */
    void
    clear()
    {
        std::fill(counts.begin(), counts.end(), 0);
        acc.clear();
    }

    /** Merge another histogram; its geometry must equal this one's (a
     *  mismatch panics: dropping the samples would lose them without
     *  a trace). */
    void
    merge(const Histogram &other)
    {
        if (other.counts.size() != counts.size() ||
            other.width != width)
            panic("Histogram::merge: geometry mismatch (" +
                  std::to_string(other.counts.size()) + " buckets of " +
                  std::to_string(other.width) + " into " +
                  std::to_string(counts.size()) + " buckets of " +
                  std::to_string(width) + ")");
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] += other.counts[i];
        acc = merged(acc, other.acc);
    }

    /** Percentile estimate for @p p in [0, 100]: percentiles({p / 100}). */
    double
    percentile(double p) const
    {
        return percentiles({p / 100.0})[0];
    }

    /**
     * Batch quantile estimates: one bucket walk resolves every
     * requested quantile, linear within the owning bucket and clamped
     * to the observed sample range. An empty histogram yields 0s.
     *
     * The last bucket is the overflow bucket (it holds every sample
     * >= its lower edge, however large), so when a target rank lands
     * there the estimate interpolates between the bucket's lower edge
     * and the observed maximum instead of pretending the bucket has
     * `width` extent.
     *
     * @param qs Quantiles as fractions in [0, 1] — e.g.
     *           {0.5, 0.99, 0.999} for p50 / p99 / p99.9. Results are
     *           returned in the same order (the input need not be
     *           sorted). High quantiles stay accurate: the walk
     *           interpolates within the owning bucket, so the error is
     *           bounded by one bucket width even at p99.9.
     */
    std::vector<double>
    percentiles(const std::vector<double> &qs) const
    {
        std::vector<double> out(qs.size(), 0.0);
        if (acc.count() == 0 || qs.empty())
            return out;
        // Resolve targets in rank order during one walk; `order`
        // restores the caller's ordering afterwards.
        std::vector<std::size_t> order(qs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return qs[a] < qs[b];
                  });
        const double n = static_cast<double>(acc.count());
        std::size_t next = 0;
        double seen = 0;
        for (std::size_t i = 0; i < counts.size() && next < order.size();
             ++i) {
            if (counts[i] == 0)
                continue;
            double upto = seen + static_cast<double>(counts[i]);
            while (next < order.size()) {
                double target =
                    std::clamp(qs[order[next]], 0.0, 1.0) * n;
                if (target <= 0.0) {
                    out[order[next++]] = acc.min();
                    continue;
                }
                if (upto < target)
                    break;
                double lo = static_cast<double>(i) * width;
                double frac =
                    (target - seen) / static_cast<double>(counts[i]);
                double hi = (i + 1 == counts.size())
                                ? std::max(acc.max(), lo) // overflow
                                : lo + width;
                out[order[next++]] = std::clamp(lo + frac * (hi - lo),
                                                acc.min(), acc.max());
            }
            seen = upto;
        }
        while (next < order.size())
            out[order[next++]] = acc.max();
        return out;
    }

  private:
    double width;
    std::vector<std::uint64_t> counts;
    Accumulator acc;
};

/**
 * Record of busy intervals on one unit (die, channel). Post-processed
 * into "active units over time" series for Fig. 15.
 */
class IntervalTrace
{
  public:
    void
    add(Tick start, Tick end)
    {
        // Merge with the previous interval when contiguous to bound
        // memory under saturation.
        if (!spans.empty() && start <= spans.back().second) {
            spans.back().second = std::max(spans.back().second, end);
        } else {
            spans.emplace_back(start, end);
        }
    }

    const std::vector<std::pair<Tick, Tick>> &get() const { return spans; }

    /** Total busy time covered by the (disjoint) spans. */
    Tick
    busy() const
    {
        Tick b = 0;
        for (auto &[s, e] : spans)
            b += e - s;
        return b;
    }

    /** Busy time overlapping [t0, t1). */
    Tick
    busyWithin(Tick t0, Tick t1) const
    {
        Tick b = 0;
        for (auto &[s, e] : spans) {
            if (e <= t0)
                continue;
            if (s >= t1)
                break;
            b += std::min(e, t1) - std::max(s, t0);
        }
        return b;
    }

    /** Union another trace's spans into this one (re-coalescing). */
    void
    merge(const IntervalTrace &other)
    {
        if (other.spans.empty())
            return;
        if (spans.empty()) {
            spans = other.spans;
            return;
        }
        std::vector<std::pair<Tick, Tick>> all = std::move(spans);
        all.insert(all.end(), other.spans.begin(), other.spans.end());
        std::sort(all.begin(), all.end());
        spans.clear();
        for (const auto &[s, e] : all)
            add(s, e);
    }

    void clear() { spans.clear(); }
    bool empty() const { return spans.empty(); }

  private:
    std::vector<std::pair<Tick, Tick>> spans;
};

/**
 * Build an "active unit count over time" series (Fig. 15a-e): for each
 * time bucket, how many of the traced units were busy for more than
 * half of the bucket.
 *
 * @param traces  One IntervalTrace per unit.
 * @param horizon End of the observation window.
 * @param buckets Number of output samples.
 */
std::vector<double> activeSeries(
    const std::vector<const IntervalTrace *> &traces, Tick horizon,
    std::size_t buckets);

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_STATS_H
