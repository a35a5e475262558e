/**
 * @file
 * bgnlint — BeaconGNN's determinism/invariant static-analysis pass
 * (DESIGN.md §11).
 *
 * Nine repo-specific rules, each a named, suppressible diagnostic:
 *
 *  - BGN001  no wall-clock / ambient randomness in simulation code
 *            (std::rand, srand, random_device, time(), any
 *            chrono *_clock) — sim code draws from sim::Pcg32 /
 *            keyedRandom() and tells time in sim::Tick only;
 *  - BGN002  no iteration over std::unordered_map/unordered_set:
 *            hash order is not stable across builds/libraries, so any
 *            range-for or .begin() walk can leak nondeterminism into
 *            metrics, CSV/JSON emitters or event scheduling;
 *  - BGN003  no raw new/delete outside the SBO kernel in src/sim/;
 *  - BGN004  MetricRegistry instrument-name literals must match the
 *            DESIGN.md §10 namespace grammar
 *            (flash.|ssd.|engine.|accel.|energy.|serve.|run.|array.
 *            roots, lower_snake components);
 *  - BGN005  no float/double accumulation inside parallelMap/runGrid
 *            call regions without a `bgnlint:deterministic-order`
 *            comment tag vouching for a fixed reduction order;
 *  - BGN006  no direct schedule()/scheduleAt()/bulkScheduleAt() on a
 *            queue reached through a member — `port.queue->scheduleAt`
 *            or `ctx->queue().schedule`: under the conservative
 *            parallel simulator (DESIGN.md §13) cross-device work must
 *            wait in the posting lane's outbox for the driver's deliver
 *            hook; the handful of sanctioned sync seams carry an allow
 *            tag;
 *  - BGN007  no write to lane-owned state (a cross-TU symbol table of
 *            containers whose elements are per-device lanes —
 *            Batch::Lane, DevicePort, DeviceContext, per-device
 *            TraceSink/VertexCache/EventQueue shards, plus
 *            any declaration tagged `bgnlint:lane-owned`) unless the
 *            access is indexed by a single owning-device identifier;
 *            literal/compound indices and mutable range-fors over a
 *            lane container are the merge/setup seams and must carry
 *            an allow tag justifying why the driver is quiescent;
 *  - BGN008  stale `bgnlint:allow(ID)` suppressions: a tag that masks
 *            no finding on its line span (or names no catalog rule)
 *            is itself a finding, so dead suppressions cannot
 *            accumulate and silently re-open holes;
 *  - BGN009  include-graph layering: src/sim is the foundation and
 *            may include no other src/ directory; src/flash and
 *            src/ssd (device-level) may not include src/platforms or
 *            src/serve (orchestration); directory-level include
 *            cycles are errors.
 *
 * Suppression: `// bgnlint:allow(BGN002)` (comma-separate several
 * IDs) on the finding's line or the line directly above it.
 *
 * Scope: BGN001, BGN006 and BGN007 apply under src/ and tools/
 * (bench/ is host-side measurement harness and may read wall clocks;
 * tools/bgnlint itself names the banned constructs and is excluded);
 * BGN003 exempts src/sim/ (InlineCallback's small-buffer kernel);
 * BGN007 additionally exempts src/sim/parallel_sim.* (the driver
 * implements the window protocol the rule enforces); BGN009 applies
 * to files under src/; the rest apply to every scanned file.
 *
 * The analysis is a lightweight tokenizer pass, not a compiler: name
 * resolution is "nearest preceding declaration in the same file, else
 * any file that declares the name as an unordered container". That
 * catches every real pattern in this codebase; the escape hatch for a
 * false positive is the allow-comment, which doubles as in-source
 * documentation of why the site is safe.
 */

#ifndef BEACONGNN_BGNLINT_LINT_H
#define BEACONGNN_BGNLINT_LINT_H

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace bgnlint {

struct Finding
{
    std::string file; ///< Path as given (relative to scan root).
    int line = 0;
    std::string rule; ///< "BGN001".."BGN009".
    std::string message;
    bool suppressed = false;
};

struct RuleInfo
{
    std::string id;
    std::string title;
    std::string hint; ///< Suggested fix, printed with --hints.
};

/** Static catalog of all rules, in ID order. */
const std::vector<RuleInfo> &ruleCatalog();

struct FileInput
{
    std::string path; ///< Forward-slash path relative to the repo
                      ///< root; used for per-rule applicability.
    std::string content;
};

struct LintOptions
{
    bool showSuppressed = false; ///< Include suppressed findings.
    std::vector<std::string> onlyRules; ///< Empty = all rules.
};

/**
 * Lint @p files. Findings come back sorted by (file, line, rule) —
 * the linter's own output must be deterministic. Suppressed findings
 * are dropped unless @p opt.showSuppressed.
 */
std::vector<Finding> lintFiles(const std::vector<FileInput> &files,
                               const LintOptions &opt = {});

/**
 * Collect .h/.hpp/.cc/.cpp/.cxx sources under @p paths (files or
 * directories, relative to @p root), sorted by path. Directories
 * named build*, results or starting with '.' are skipped.
 */
std::vector<FileInput> loadTree(const std::filesystem::path &root,
                                const std::vector<std::string> &paths,
                                std::string *error);

/** `file:line: RULE: message` per finding (compiler-style). */
void writeText(std::ostream &os, const std::vector<Finding> &findings,
               bool hints);

/** Machine-readable report for CI. */
void writeJson(std::ostream &os, const std::vector<Finding> &findings);

} // namespace bgnlint

#endif // BEACONGNN_BGNLINT_LINT_H
