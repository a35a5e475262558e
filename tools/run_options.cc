#include "run_options.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "cache/vertex_cache.h"
#include "platforms/topology.h"

namespace beacongnn::tools {

namespace {

// Shared flags the cross-flag checks name, spelled once.
const char *const kDevices = "--devices";
const char *const kReplication = "--replication";
const char *const kDieKill = "--die-kill";
const char *const kTrace = "--trace";

/** Setter of an output path (empty = no file). */
Setter
path(std::string &field)
{
    return [&field](const std::string &, const std::string &value) {
        field = value;
        return std::string();
    };
}

} // namespace

std::string
bad(const std::string &flag, const std::string &value,
    const std::string &why)
{
    return "bad " + flag + " '" + value + "' (" + why + ")";
}

std::string
parseNatural(const std::string &flag, const std::string &value,
             std::uint64_t max, std::uint64_t unit, std::uint64_t min,
             std::uint64_t &out)
{
    const char *end = value.data() + value.size();
    std::uint64_t v = 0;
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end || v < min || v > max / unit)
        return bad(flag, value,
                   "want an integer in " + std::to_string(min) + ".." +
                       std::to_string(max / unit));
    out = v * unit;
    return {};
}

std::string
parseReal(const std::string &flag, const std::string &value,
          bool positive, double &out)
{
    const char *end = value.data() + value.size();
    double v = 0;
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
        (positive && v <= 0.0))
        return bad(flag, value,
                   positive ? "want a finite number > 0"
                            : "want a finite number");
    out = v;
    return {};
}

Setter
real(double &field, bool positive)
{
    return [&field, positive](const std::string &flag,
                              const std::string &value) {
        return parseReal(flag, value, positive, field);
    };
}

Setter
positive(double &field, const char *hint)
{
    return [&field, hint](const std::string &flag,
                          const std::string &value) {
        std::string err = parseReal(flag, value, false, field);
        if (err.empty() && field <= 0.0)
            err = flag + " must be positive (" + hint + ")";
        return err;
    };
}

Setter
enable(bool &field)
{
    return [&field](const std::string &, const std::string &) {
        field = true;
        return std::string();
    };
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

FlagTable
sharedFlags(RunOptions &o)
{
    using namespace platforms;
    RunConfig &rc = o.run;
    return {
        {"--platform", "NAME[,NAME...]",
         "CC|GLIST|SmartSage|BG-1|BG-DG|BG-SP|BG-DGSP|BG-2 (default BG-2; "
         "bgnserve CC,BG-2)",
         listOf(o.kinds, "platform", findPlatform, platformNameList)},
        {"--workload", "NAME[,NAME...]",
         "reddit|amazon|movielens|OGBN|PPI (default amazon)",
         listOf(o.workloads, "workload", graph::findWorkload,
                graph::workloadNameList)},
        {"--nodes", "N", "override the workload's node count",
         natural(o.nodes)},
        {"--channels", "N", "flash channels per SSD (default 16)",
         natural(rc.system.flash.channels, 1, 1)},
        {"--dies", "N", "dies per channel (default 8)",
         natural(rc.system.flash.diesPerChannel, 1, 1)},
        {kDevices, "N", "SSDs in a scale-out array (default 1; >1 needs a "
                        "streaming platform)",
         natural(rc.topology.devices)},
        {"--p2p-mbps", "X", "per-device P2P link bandwidth (default 4000)",
         real(rc.topology.p2pMBps)},
        {"--p2p-latency-us", "N", "P2P hop latency in us (default 1; the "
                                  "simulator's lookahead, 0 serializes)",
         natural(rc.topology.p2pLatency, sim::microseconds(1))},
        {"--partition", "NAME", "hash|range|balanced graph partition "
                                "(default hash)",
         oneOf(rc.topology.partition, "partition", findPartitionPolicy,
               partitionPolicyList)},
        {kReplication, "N", "replicas per node (chained declustering, "
                            "at most the device count; default 1)",
         natural(rc.topology.replication)},
        {"--retry-prob", "X",
         "per-die flash read-retry probability scale (default 0 = off)",
         [&rc](const std::string &flag, const std::string &value) {
             double &p = rc.system.disturb.retryProb;
             std::string err = parseReal(flag, value, false, p);
             if (err.empty() && (p < 0.0 || p > 1.0))
                 err = flag + " must be in [0, 1]";
             return err;
         }},
        {kDieKill, "SPEC[,SPEC...]", "kill schedule: DEV@US kills a whole "
                                     "device at US microseconds, DEV.DIE@US "
                                     "one die",
         [&rc](const std::string &flag, const std::string &value) {
             for (const std::string &spec : splitList(value)) {
                 auto k = parseKillEvent(spec);
                 if (!k)
                     return bad(flag, spec, "want DEV@US or DEV.DIE@US");
                 rc.kills.push_back(*k);
             }
             return std::string();
         }},
        {"--cache-mb", "X", "per-device DRAM vertex cache in MiB (default "
                            "0 = off)",
         positive(rc.cache.capacityMB, "omit the flag to disable the cache")},
        {"--cache-policy", "NAME", "lru|mslru|fifo eviction (default lru)",
         oneOf(rc.cache.policy, "cache policy", cache::findCachePolicy,
               cache::cachePolicyList)},
        {"--jobs", "N", "workers for grid cells and the devices of one run "
                        "(default BGN_JOBS or cores)",
         natural(o.jobs)},
        {"--csv", "FILE", "append CSV result rows to FILE",
         path(o.csvPath)},
        {"--metrics", "FILE", "dump every instrument as JSON",
         path(o.metricsPath)},
        {"--metrics-csv", "FILE", "dump every instrument as CSV",
         path(o.metricsCsvPath)},
        {kTrace, "FILE", "Chrome-trace event file (single run only)",
         path(o.tracePath)},
    };
}

Parsed
parseArgs(const FlagTable &flags, int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h")
            return {true, {}, false};
        auto f = std::find_if(flags.begin(), flags.end(),
                              [&](const Flag &x) { return a == x.name; });
        if (f == flags.end())
            return {false, "unknown option '" + a + "'", true};
        std::string value;
        if (f->arg) {
            if (i + 1 >= argc)
                return {false, a + " needs a value (" + f->arg + ")", true};
            value = argv[++i];
        }
        if (std::string err = f->set(a, value); !err.empty())
            return {false, err, false};
    }
    return {};
}

std::string
usage(const char *tool, const FlagTable &flags)
{
    std::string out = std::string("usage: ") + tool + " [options]\n";
    auto line = [&out](std::string lhs, const char *help) {
        lhs.resize(std::max<std::size_t>(lhs.size() + 2, 28), ' ');
        out += "  " + lhs + help + "\n";
    };
    for (const Flag &f : flags)
        line(f.arg ? std::string(f.name) + " " + f.arg : f.name, f.help);
    line("-h, --help", "print this help and exit");
    return out;
}

std::string
check(const RunOptions &o, std::size_t points)
{
    const platforms::TopologyConfig &t = o.run.topology;
    if (t.devices == 0)
        return std::string(kDevices) + " must be >= 1";
    if (t.devices > engines::GnnEngine::kMaxDevices)
        return std::string(kDevices) + " must be <= " +
               std::to_string(engines::GnnEngine::kMaxDevices) +
               " (the engine's device limit)";
    if (t.replication == 0)
        return std::string(kReplication) + " must be >= 1";
    const unsigned dies = o.run.system.flash.totalDies();
    for (const platforms::KillEvent &k : o.run.kills) {
        if (k.device >= t.devices)
            return std::string(kDieKill) + " names device " +
                   std::to_string(k.device) + " of a " +
                   std::to_string(t.devices) + "-device topology";
        if (k.die >= 0 && static_cast<unsigned>(k.die) >= dies)
            return std::string(kDieKill) + " names die " +
                   std::to_string(k.die) + " of a " +
                   std::to_string(dies) + "-die device";
    }
    for (platforms::PlatformKind kind : o.kinds) {
        const platforms::PlatformConfig p = platforms::makePlatform(kind);
        if (t.multi() && !p.flags.directGraph)
            return std::string(kDevices) + " " +
                   std::to_string(t.devices) +
                   " needs a streaming (DirectGraph) platform; '" +
                   p.name + "' is not";
    }
    if (!o.tracePath.empty() &&
        o.kinds.size() * o.workloads.size() * points != 1)
        return std::string(kTrace) + " requires a single run";
    return {};
}

void
parseOrExit(const char *tool, const FlagTable &flags, int argc,
            const char *const *argv,
            const std::function<std::string()> &checks)
{
    Parsed p = parseArgs(flags, argc, argv);
    if (p.help) {
        std::fputs(usage(tool, flags).c_str(), stdout);
        std::exit(0);
    }
    if (p.error.empty() && (p.error = checks()).empty())
        return;
    std::fprintf(stderr, "%s: %s\n", tool, p.error.c_str());
    if (p.usage)
        std::fputs(usage(tool, flags).c_str(), stderr);
    std::exit(2);
}

Grid::Grid(RunOptions &o, const gnn::ModelConfig &model,
           std::size_t points_per_pair)
    : opts(o), points(points_per_pair)
{
    sim::SimExecutor::setDefaultJobs(o.jobs);
    for (const graph::WorkloadSpec &w : o.workloads)
        bundles.push_back(
            platforms::makeBundle(w, o.run.system.flash, model, o.nodes));
    if (!o.metricsPath.empty() || !o.metricsCsvPath.empty())
        regs.resize(size());
    if (!o.tracePath.empty())
        o.run.traceSink = &sink;
}

sim::SimExecutor
Grid::executor(const char *tool) const
{
    sim::SimExecutor ex;
    if (size() > 1)
        // stderr: stdout stays byte-identical across worker counts.
        std::fprintf(stderr, "%s: %zu-run grid on %u worker(s)\n", tool,
                     size(), ex.jobs());
    return ex;
}

platforms::PlatformKind
Grid::kindOf(std::size_t i) const
{
    return opts.kinds[i / (bundles.size() * points)];
}

const platforms::WorkloadBundle &
Grid::bundleOf(std::size_t i) const
{
    return *bundles[(i / points) % bundles.size()];
}

Grid::Cell
Grid::cell(std::size_t i)
{
    return {kindOf(i), bundleOf(i), i % points,
            regs.empty() ? nullptr : &regs[i]};
}

void
Grid::appendCsv(
    const char *lead, const std::function<void(std::ostream &)> &header,
    const std::function<void(std::ostream &, std::size_t)> &row) const
{
    if (opts.csvPath.empty())
        return;
    const bool fresh = !std::ifstream(opts.csvPath).good();
    std::ofstream out(opts.csvPath, std::ios::app);
    if (fresh)
        header(out);
    for (std::size_t i = 0; i < size(); ++i)
        row(out, i);
    std::printf("%sappended %zu CSV row(s) to %s\n", lead, size(),
                opts.csvPath.c_str());
}

void
Grid::writeOutputs(const char *lead,
                   const std::function<std::string(std::size_t)> &extra) const
{
    auto label = [&](std::size_t i, const char *sep) {
        return platforms::makePlatform(kindOf(i)).name + sep +
               bundleOf(i).name;
    };
    if (!opts.metricsPath.empty()) {
        std::ofstream out(opts.metricsPath);
        out << "{\"runs\": [";
        for (std::size_t i = 0; i < size(); ++i) {
            out << (i == 0 ? "\n" : ",\n") << "{\"platform\": \""
                << label(i, "\", \"workload\": \"") << "\""
                << (extra ? extra(i) : "") << ", \"metrics\": ";
            regs[i].writeJson(out);
            out << "}";
        }
        out << "\n]}\n";
        std::printf("%swrote metrics snapshot to %s\n", lead,
                    opts.metricsPath.c_str());
    }
    if (!opts.metricsCsvPath.empty()) {
        std::ofstream out(opts.metricsCsvPath);
        sim::MetricRegistry::writeCsvHeader(out, "platform,workload,");
        for (std::size_t i = 0; i < size(); ++i)
            regs[i].writeCsv(out, label(i, ",") + ",");
        std::printf("%swrote metrics CSV to %s\n", lead,
                    opts.metricsCsvPath.c_str());
    }
    if (!opts.tracePath.empty()) {
        std::ofstream out(opts.tracePath);
        sink.write(out);
        std::printf("%swrote %zu trace event(s) to %s%s\n", lead,
                    sink.events(), opts.tracePath.c_str(),
                    sink.dropped() ? " (truncated)" : "");
    }
}

} // namespace beacongnn::tools
