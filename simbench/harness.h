/**
 * @file
 * Simulator-independent helpers of the benchmark: order statistics,
 * the exact nearest-rank percentile and its histogram cross-check, the
 * metrics-snapshot fingerprint, the result-line emitter and the
 * in-memory span log. Kept free of simulator headers so
 * test_harness.cc can check them in isolation.
 */

#ifndef SIMBENCH_HARNESS_H
#define SIMBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include <time.h>

namespace simbench {

/** Median of @p v (mean of the two middle values when even); 0 when
 *  empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** First, second and third quartile of a sample. */
struct Quartiles
{
    double q1 = 0;
    double q2 = 0;
    double q3 = 0;
};

/**
 * Quartiles computed exactly as Python's
 * `statistics.quantiles(v, n=4)` (its default "exclusive" method), so
 * the spread the benchmark prints is the one its acceptance check
 * computes. A single value is every quartile; empty input gives zeros.
 */
inline Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const std::size_t ld = v.size();
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    double out[3] = {0, 0, 0};
    const std::size_t n = 4, m = ld + 1;
    for (std::size_t i = 1; i < n; ++i) {
        const std::size_t j = std::clamp<std::size_t>(i * m / n, 1, ld - 1);
        // May be negative when j was clamped up (Python extrapolates).
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * n);
        out[i - 1] = (v[j - 1] * (static_cast<double>(n) - delta) +
                      v[j] * delta) /
                     static_cast<double>(n);
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

/**
 * Exact nearest-rank percentile of an ascending sample: the value at
 * rank ceil(pct / 100 * n), clamped to [1, n]. The rank expression is
 * the one sim::Histogram::percentile() uses for its target, so both
 * name the same sample. 0 when empty.
 */
inline double
exactPercentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t r =
        rank < 1.0 ? 1
                   : std::min(sorted.size(), static_cast<std::size_t>(rank));
    return sorted[r - 1];
}

/** exactPercentile() of a sample in any order. */
inline double
percentileOf(std::vector<double> v, double pct)
{
    std::sort(v.begin(), v.end());
    return exactPercentile(v, pct);
}

/** CPU seconds the calling thread has used so far. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Host time of one timed call. */
struct Lap
{
    double wall = 0; ///< Wall-clock seconds.
    double cpu = 0;  ///< CPU seconds of the calling thread.
};

/**
 * Does a linear-histogram percentile estimate @p est (bucket width
 * @p width, @p buckets buckets, the last one open-ended) agree with
 * the exact value @p exact? It must fall in the exact value's bucket,
 * upper edge included; in the overflow bucket it only has to reach
 * the bucket's lower edge.
 */
inline bool
sameBucket(double exact, double est, double width, std::size_t buckets)
{
    const double last = static_cast<double>(buckets - 1);
    const double idx = std::floor(exact / width);
    if (idx >= last)
        return est >= last * width;
    const double lo = idx * width;
    return est >= lo && est <= lo + width;
}

/** 64-bit FNV-1a hash of @p text: the fingerprint of a metrics
 *  snapshot. */
inline std::uint64_t
fingerprint(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A fingerprint as 16 lower-case hex digits. */
inline std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * The reference kernel: fixed work shaped like the simulator's host
 * time (a 16 MiB table rewritten, a dependent random walk over it, and
 * a binary heap), used to tell how fast the host runs at the moment.
 * It touches no simulator code, so a change to the simulator cannot
 * move it. Its memory is allocated once, so running it neither
 * allocates nor moves the program's peak memory.
 */
class ReferenceKernel
{
  public:
    ReferenceKernel() { heap.reserve(kHeapItems); }

    /** Do the work once; returns a checksum of it (fixed, see
     *  test_harness.cc), so that none of it can be optimised away. */
    std::uint64_t
    run()
    {
        for (std::size_t i = 0; i < kWords; ++i)
            table[i] = mix(i);
        std::uint64_t at = 0, sum = 0;
        for (int step = 0; step < (1 << 19); ++step) {
            at = mix(table[at & (kWords - 1)] + sum);
            sum += at >> 11;
        }
        for (std::uint64_t i = 0; i < kHeapItems; ++i) {
            heap.push_back(mix(sum + i));
            std::push_heap(heap.begin(), heap.end());
        }
        while (!heap.empty()) {
            sum = sum * 31 + heap.front();
            std::pop_heap(heap.begin(), heap.end());
            heap.pop_back();
        }
        return sum;
    }

  private:
    static constexpr std::size_t kWords = std::size_t{1} << 21;
    static constexpr std::size_t kHeapItems = std::size_t{1} << 16;

    static std::uint64_t
    mix(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kWords);
    std::vector<std::uint64_t> heap;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The result line: one JSON object with `correct`, `attempted`,
 * `failed` and `metrics` (name -> {value, unit}). Values print with 17
 * significant digits so they read back bit-exact. Names and units are
 * plain identifiers and need no escaping; values must be finite.
 */
inline std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
        s += i ? ", \"" : "\"";
        s += metrics[i].name + "\": {\"value\": " + num +
             ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    s += "}}";
    return s;
}

/**
 * In-memory span log. A span records a name, host start and end, the
 * span open around it (its parent) and the repetition it belongs to;
 * `hidden` is child time measured by counters instead of spans (the
 * aggregated section fetches inside a batch). Self time is the
 * duration minus the child spans and the hidden time. A log built with
 * `record = false` only times the calls and keeps nothing, so an
 * untraced run's memory does not grow with its length.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool record_spans = true) : record(record_spans) {}

    struct Span
    {
        std::string name;
        double start = 0; ///< Seconds since the log was created.
        double end = 0;
        int parent = -1;  ///< Index of the enclosing span; -1 = root.
        unsigned rep = 0; ///< Repetition (shared by its spans).
        double hidden = 0;
    };

    /** Run @p fn inside a span named @p name; returns its wall-clock
     *  and thread CPU seconds. */
    template <typename Fn>
    Lap
    time(std::string name, Fn &&fn)
    {
        if (!record) {
            const double w0 = now(), c0 = threadCpuSeconds();
            fn();
            const double c1 = threadCpuSeconds();
            return {now() - w0, c1 - c0};
        }
        const int idx = static_cast<int>(spans.size());
        spans.push_back(Span{std::move(name), 0, 0,
                             open.empty() ? -1 : open.back(), rep, 0});
        open.push_back(idx);
        spans.back().start = now();
        const double c0 = threadCpuSeconds();
        fn();
        const double c1 = threadCpuSeconds();
        const double end = now();
        open.pop_back();
        Span &s = spans[static_cast<std::size_t>(idx)];
        s.end = end;
        last = idx;
        return {s.end - s.start, c1 - c0};
    }

    /** Attribute @p seconds of counter-measured child time to the
     *  span time() closed last. */
    void
    addHidden(double seconds)
    {
        if (last >= 0)
            spans[static_cast<std::size_t>(last)].hidden += seconds;
    }

    /** Tag the spans opened from now on with repetition @p r. */
    void setRep(unsigned r) { rep = r; }

    const std::vector<Span> &all() const { return spans; }

    /** Self time of every span, by index: duration minus child spans
     *  and hidden time. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].end - spans[i].start - spans[i].hidden;
        for (const Span &s : spans)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        return self;
    }

    /** Write every span as a Chrome trace ("X" events, microseconds),
     *  viewable in Perfetto; args carry parent, rep and self time. */
    void
    writeChrome(std::ostream &os) const
    {
        const std::vector<double> self = selfTimes();
        os << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\n {\"name\": \"%s\", \"ph\": \"X\", "
                          "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                          "\"dur\": %.3f, \"args\": {\"parent\": %d, "
                          "\"rep\": %u, \"self_s\": %.9f, "
                          "\"counted_child_s\": %.9f}}",
                          i ? "," : "", s.name.c_str(), s.start * 1e6,
                          (s.end - s.start) * 1e6, s.parent, s.rep,
                          self[i], s.hidden);
            os << buf;
        }
        os << "\n]}\n";
    }

  private:
    using Clock = std::chrono::steady_clock;

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin)
            .count();
    }

    bool record;
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<int> open;
    int last = -1;
    unsigned rep = 0;
};

} // namespace simbench

#endif // SIMBENCH_HARNESS_H
