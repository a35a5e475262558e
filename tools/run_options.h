/**
 * @file
 * The options layer of bgnsim and bgnserve (DESIGN.md §18). A tool's
 * command line is one flag table, sharedFlags() plus the tool's own
 * entries: each pairs a flag name, a value placeholder and one help
 * line with a typed parser that stores into the options, and the usage
 * text is generated from it. Grid runs the platform x workload
 * (x point) cells and writes the --metrics, --metrics-csv and --trace
 * files.
 */

#ifndef BEACONGNN_TOOLS_RUN_OPTIONS_H
#define BEACONGNN_TOOLS_RUN_OPTIONS_H

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "gnn/vertex_program.h"
#include "platforms/runner.h"
#include "serve/serve.h"
#include "sim/executor.h"
#include "sim/trace_events.h"

namespace beacongnn::tools {

/** Stores one flag's value; returns "" or the error (no tool prefix). */
using Setter =
    std::function<std::string(const std::string &flag,
                              const std::string &value)>;

/** One flag table entry. */
struct Flag
{
    const char *name; ///< The flag, "--batches".
    const char *arg;  ///< Value placeholder ("N"); nullptr = a switch.
    const char *help; ///< The usage line.
    Setter set;
};

using FlagTable = std::vector<Flag>;

/** What the shared flags set; each tool extends it with its own. */
struct RunOptions
{
    std::vector<platforms::PlatformKind> kinds; ///< --platform.
    std::vector<graph::WorkloadSpec> workloads{graph::workload("amazon")};
    graph::NodeId nodes = 0; ///< Node-count override; 0 = the spec's.
    unsigned jobs = 0;       ///< 0 = BGN_JOBS or the hardware cores.
    platforms::RunConfig run;
    std::string csvPath, metricsPath, metricsCsvPath, tracePath;
};

/** Split "a,b,,c" into {"a", "b", "c"}: empty items are dropped. */
std::vector<std::string> splitList(const std::string &csv);

/** "bad FLAG 'VALUE' (WHY)", the message of every malformed value. */
std::string bad(const std::string &flag, const std::string &value,
                const std::string &why);

/** Plain decimal digits, at least @p min, whose value times @p unit
 *  is at most @p max; stores the scaled value in @p out. */
std::string parseNatural(const std::string &flag, const std::string &value,
                         std::uint64_t max, std::uint64_t unit,
                         std::uint64_t min, std::uint64_t &out);

/** A finite real, and > 0 when @p positive; stored in @p out. */
std::string parseReal(const std::string &flag, const std::string &value,
                      bool positive, double &out);

/** Setter of an unsigned integer field: the value is scaled by @p unit
 *  (1024 for KiB, 1000 for us ...) and must be at least @p min. */
template <typename T>
Setter
natural(T &field, std::uint64_t unit = 1, std::uint64_t min = 0)
{
    return [&field, unit, min](const std::string &flag,
                               const std::string &value) {
        std::uint64_t v = 0;
        std::string err = parseNatural(
            flag, value, std::numeric_limits<T>::max(), unit, min, v);
        if (err.empty())
            field = static_cast<T>(v);
        return err;
    };
}

/** Setter of a finite real field (> 0 when @p positive). */
Setter real(double &field, bool positive = false);

/** Setter of a positive real field whose non-positive value is
 *  rejected as "FLAG must be positive (HINT)". */
Setter positive(double &field, const char *hint);

/** Setter of a switch. */
Setter enable(bool &field);

/** Setter of a one-name field: @p find resolves the value, and a miss
 *  is "unknown WHAT 'NAME' (valid: VALID())". */
template <typename T, typename Find, typename Valid>
Setter
oneOf(T &field, const char *what, Find find, Valid valid)
{
    return [&field, what, find, valid](const std::string &,
                                       const std::string &value) {
        auto found = find(value);
        if (!found)
            return std::string("unknown ") + what + " '" + value +
                   "' (valid: " + valid() + ")";
        field = *found;
        return std::string();
    };
}

/** Setter of a non-empty comma-separated list of oneOf() names. */
template <typename T, typename Find, typename Valid>
Setter
listOf(std::vector<T> &field, const char *what, Find find, Valid valid)
{
    return [&field, what, find, valid](const std::string &flag,
                                       const std::string &value) {
        field.clear();
        for (const std::string &name : splitList(value))
            if (std::string err = oneOf(field.emplace_back(), what, find,
                                        valid)(flag, name);
                !err.empty())
                return err;
        if (field.empty())
            return flag + " needs at least one name (valid: " + valid() +
                   ")";
        return std::string();
    };
}

/** The 19 entries both tools share; they store into @p o. */
FlagTable sharedFlags(RunOptions &o);

/** Outcome of parseArgs(). */
struct Parsed
{
    bool help = false;  ///< --help or -h came before any error.
    std::string error;  ///< "" = accepted (no tool prefix).
    bool usage = false; ///< An unknown flag or a missing value.
};

/** Apply argv[1..argc) to @p flags, left to right, stopping at the
 *  first --help/-h or error. */
Parsed parseArgs(const FlagTable &flags, int argc,
                 const char *const *argv);

/** The usage text generated from @p flags. */
std::string usage(const char *tool, const FlagTable &flags);

/** The checks that span flags: --devices in 1..GnnEngine::kMaxDevices,
 *  --replication >= 1, every --die-kill device in range, more than one
 *  device only on DirectGraph platforms, and --trace on a single cell
 *  of a grid with @p points cells per platform x workload pair. ""
 *  when all hold. */
std::string check(const RunOptions &o, std::size_t points = 1);

/** The CLI contract around parseArgs(): --help/-h prints the usage to
 *  stdout and exits 0; an unknown flag or a missing value prints
 *  "TOOL: MESSAGE" and the usage to stderr, a malformed value or a
 *  non-empty @p checks() result the message alone; all exit 2. */
void parseOrExit(const char *tool, const FlagTable &flags, int argc,
                 const char *const *argv,
                 const std::function<std::string()> &checks);

/** The cells of one invocation: cell i runs platform i / (W * P) on
 *  workload (i / P) % W at point i % P, for W workloads and P points
 *  per pair. Results come back in cell order for any --jobs value. */
class Grid
{
  public:
    /** What a tool's run function gets for one cell. */
    struct Cell
    {
        platforms::PlatformKind platform;
        const platforms::WorkloadBundle &bundle;
        std::size_t point;
        sim::MetricRegistry *metrics; ///< Null without a metrics file.
    };

    /** Apply --jobs, build one bundle per workload (shared read-only
     *  by every cell) and point o.run.traceSink at the --trace sink. */
    Grid(RunOptions &o, const gnn::ModelConfig &model,
         std::size_t points = 1);

    std::size_t
    size() const
    {
        return opts.kinds.size() * bundles.size() * points;
    }

    /** The workload bundle cell @p i runs on. */
    const platforms::WorkloadBundle &bundleOf(std::size_t i) const;

    /** Run @p fn on every cell. More than one cell prints the
     *  "TOOL: N-run grid on W worker(s)" banner to stderr. */
    template <typename R>
    std::vector<R>
    run(const char *tool, const std::function<R(const Cell &)> &fn)
    {
        return executor(tool).map<R>(
            size(), [&](std::size_t i) { return fn(cell(i)); });
    }

    /** Append one row per cell to the --csv file (the header first
     *  when the file is new) and report it after @p lead. */
    void appendCsv(
        const char *lead, const std::function<void(std::ostream &)> &header,
        const std::function<void(std::ostream &, std::size_t)> &row) const;

    /** Write the --metrics, --metrics-csv and --trace files that were
     *  asked for, each reported on stdout after @p lead. A metrics run
     *  is labelled with its platform and workload, then @p extra(i):
     *  more JSON members (", \"k\": v"). */
    void writeOutputs(
        const char *lead,
        const std::function<std::string(std::size_t)> &extra = {}) const;

  private:
    platforms::PlatformKind kindOf(std::size_t i) const;
    sim::SimExecutor executor(const char *tool) const;
    Cell cell(std::size_t i);

    const RunOptions &opts;
    std::size_t points;
    std::vector<std::unique_ptr<platforms::WorkloadBundle>> bundles;
    std::vector<sim::MetricRegistry> regs;
    sim::TraceSink sink;
};

/** bgnsim's options: the shared ones plus its model, vertex program
 *  and platform switches. */
struct SimOptions : RunOptions
{
    SimOptions();
    gnn::ModelConfig model;
    std::optional<gnn::AlgoKind> algo;
    bool dedupe = false;
    bool noCoalesce = false;
};

/** bgnsim's table: sharedFlags() plus its own (tools/bgnsim.cc). */
FlagTable simFlags(SimOptions &o);

/** bgnserve's options: the shared ones plus the serving sweep. */
struct ServeOptions : RunOptions
{
    ServeOptions();
    serve::ServeConfig serve;
    std::vector<double> rates{500, 1000, 2000, 4000};
    bool breakdown = false;
};

/** bgnserve's table: sharedFlags() plus its own (tools/bgnserve.cc). */
FlagTable serveFlags(ServeOptions &o);

} // namespace beacongnn::tools

#endif // BEACONGNN_TOOLS_RUN_OPTIONS_H
