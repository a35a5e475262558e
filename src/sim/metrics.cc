#include "sim/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "sim/log.h"

namespace beacongnn::sim {

namespace {

/** %.17g: enough digits for doubles to round-trip exactly. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
fmtU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Minimal JSON string escape (names are internal identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

template <typename T>
T &
MetricRegistry::get(const std::string &name)
{
    auto [it, inserted] = instruments.try_emplace(name, T{});
    if (!inserted && !std::holds_alternative<T>(it->second))
        fatal("metric '" + name + "' already registered as " +
              kindName(it->second));
    return std::get<T>(it->second);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    return get<Counter>(name);
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return get<Gauge>(name);
}

Accumulator &
MetricRegistry::accum(const std::string &name)
{
    return get<Accumulator>(name);
}

Histogram &
MetricRegistry::histogram(const std::string &name, double bucket_width,
                          std::size_t buckets)
{
    auto [it, inserted] =
        instruments.try_emplace(name, Histogram{bucket_width, buckets});
    if (!inserted && !std::holds_alternative<Histogram>(it->second))
        fatal("metric '" + name + "' already registered as " +
              kindName(it->second));
    return std::get<Histogram>(it->second);
}

IntervalTrace &
MetricRegistry::interval(const std::string &name)
{
    return get<IntervalTrace>(name);
}

namespace {

template <typename T>
const T *
find(const std::map<std::string, MetricRegistry::Instrument> &m,
     const std::string &name)
{
    auto it = m.find(name);
    if (it == m.end())
        return nullptr;
    return std::get_if<T>(&it->second);
}

} // namespace

const Counter *
MetricRegistry::findCounter(const std::string &name) const
{
    return find<Counter>(instruments, name);
}

const Gauge *
MetricRegistry::findGauge(const std::string &name) const
{
    return find<Gauge>(instruments, name);
}

const Accumulator *
MetricRegistry::findAccum(const std::string &name) const
{
    return find<Accumulator>(instruments, name);
}

bool
MetricRegistry::contains(const std::string &name) const
{
    return instruments.count(name) != 0;
}

const char *
MetricRegistry::kindName(const Instrument &ins)
{
    switch (ins.index()) {
    case 0: return "counter";
    case 1: return "gauge";
    case 2: return "accumulator";
    case 3: return "histogram";
    case 4: return "interval";
    }
    return "unknown";
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    merge(other, std::string());
}

void
MetricRegistry::merge(const MetricRegistry &other,
                      const std::string &prefix)
{
    for (const auto &[name, ins] : other.instruments) {
        const std::string dst = prefix + name;
        std::visit(
            [&, this](const auto &src) {
                using T = std::decay_t<decltype(src)>;
                if constexpr (std::is_same_v<T, Histogram>) {
                    histogram(dst, src.bucketWidth(),
                              src.buckets().size())
                        .merge(src);
                } else if constexpr (std::is_same_v<T, IntervalTrace>) {
                    interval(dst).merge(src);
                } else {
                    get<T>(dst).merge(src);
                }
            },
            ins);
    }
}

void
MetricRegistry::writeJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto &[name, ins] : instruments) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    \"" << jsonEscape(name) << "\": {\"kind\": \""
           << kindName(ins) << "\"";
        std::visit(
            [&os](const auto &v) {
                using T = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<T, Counter>) {
                    os << ", \"value\": " << fmtU64(v.value());
                } else if constexpr (std::is_same_v<T, Gauge>) {
                    os << ", \"value\": " << fmtDouble(v.value());
                } else if constexpr (std::is_same_v<T, Accumulator>) {
                    os << ", \"count\": " << fmtU64(v.count())
                       << ", \"sum\": " << fmtDouble(v.sum())
                       << ", \"min\": " << fmtDouble(v.min())
                       << ", \"max\": " << fmtDouble(v.max())
                       << ", \"mean\": " << fmtDouble(v.mean());
                } else if constexpr (std::is_same_v<T, Histogram>) {
                    const Accumulator &a = v.summary();
                    os << ", \"bucket_width\": "
                       << fmtDouble(v.bucketWidth())
                       << ", \"buckets\": " << v.buckets().size()
                       << ", \"count\": " << fmtU64(a.count())
                       << ", \"sum\": " << fmtDouble(a.sum())
                       << ", \"min\": " << fmtDouble(a.min())
                       << ", \"max\": " << fmtDouble(a.max())
                       << ", \"nonzero\": [";
                    bool bf = true;
                    for (std::size_t i = 0; i < v.buckets().size();
                         ++i) {
                        if (v.buckets()[i] == 0)
                            continue;
                        if (!bf)
                            os << ", ";
                        bf = false;
                        os << "[" << i << ", "
                           << fmtU64(v.buckets()[i]) << "]";
                    }
                    os << "]";
                } else if constexpr (std::is_same_v<T, IntervalTrace>) {
                    os << ", \"spans\": " << v.get().size()
                       << ", \"busy_ticks\": " << fmtU64(v.busy())
                       << ", \"intervals\": [";
                    bool bf = true;
                    for (const auto &[s, e] : v.get()) {
                        if (!bf)
                            os << ", ";
                        bf = false;
                        os << "[" << fmtU64(s) << ", " << fmtU64(e)
                           << "]";
                    }
                    os << "]";
                }
            },
            ins);
        os << "}";
    }
    os << "\n  }";
}

void
MetricRegistry::writeCsvHeader(std::ostream &os,
                               const std::string &prefix_header)
{
    os << prefix_header << "name,kind,count,sum,min,max,mean,value\n";
}

void
MetricRegistry::writeCsv(std::ostream &os,
                         const std::string &row_prefix) const
{
    for (const auto &[name, ins] : instruments) {
        os << row_prefix << name << "," << kindName(ins) << ",";
        std::visit(
            [&os](const auto &v) {
                using T = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<T, Counter>) {
                    os << ",,,,," << fmtU64(v.value());
                } else if constexpr (std::is_same_v<T, Gauge>) {
                    os << ",,,,," << fmtDouble(v.value());
                } else if constexpr (std::is_same_v<T, Accumulator>) {
                    os << fmtU64(v.count()) << "," << fmtDouble(v.sum())
                       << "," << fmtDouble(v.min()) << ","
                       << fmtDouble(v.max()) << ","
                       << fmtDouble(v.mean()) << ",";
                } else if constexpr (std::is_same_v<T, Histogram>) {
                    const Accumulator &a = v.summary();
                    os << fmtU64(a.count()) << "," << fmtDouble(a.sum())
                       << "," << fmtDouble(a.min()) << ","
                       << fmtDouble(a.max()) << ","
                       << fmtDouble(a.mean()) << ","
                       << fmtDouble(v.bucketWidth());
                } else if constexpr (std::is_same_v<T, IntervalTrace>) {
                    os << v.get().size() << "," << fmtU64(v.busy())
                       << ",,,,";
                }
            },
            ins);
        os << "\n";
    }
}

} // namespace beacongnn::sim
