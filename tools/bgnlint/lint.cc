#include "lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "lexer.h"

namespace bgnlint {

namespace {

// ==================================================================
// Rule catalog.
// ==================================================================

const std::vector<RuleInfo> kRules = {
    {"BGN001",
     "wall-clock or ambient randomness in simulation code",
     "draw randomness from sim::Pcg32 / sim::keyedRandom() and tell "
     "time in sim::Tick (SimTime); wall clocks belong to bench/ only"},
    {"BGN002",
     "iteration over an unordered container",
     "hash order is not stable across builds; iterate a std::map/"
     "std::set, or collect keys and std::sort before walking"},
    {"BGN003",
     "raw new/delete outside src/sim/",
     "use std::make_unique / std::vector; only the InlineCallback "
     "SBO kernel in src/sim/ manages raw storage"},
    {"BGN004",
     "metric name violates the DESIGN.md §10 namespace grammar",
     "instrument names are lower_snake dot paths rooted at flash./"
     "ssd./engine./accel./energy./serve./run./array./model.; the "
     "model. root takes a closed second segment (a model-zoo kind, "
     "algo, or a session leaf)"},
    {"BGN005",
     "float accumulation in a parallelMap/runGrid region without a "
     "deterministic-order tag",
     "reduce in submission order over the collected results and tag "
     "the site with // bgnlint:deterministic-order"},
    {"BGN006",
     "direct schedule on a foreign device queue",
     "cross-device work must wait in the posting lane's outbox for "
     "the driver's deliver hook (DESIGN.md §13); only the "
     "conservative-sync seams may touch another device's queue, "
     "tagged // bgnlint:allow(BGN006)"},
    {"BGN007",
     "write to lane-owned state not indexed by the owning device",
     "per-device state is touched only through its owner's lane "
     "(DESIGN.md §16): index lane containers with a single "
     "owning-device identifier; merge/setup seams where the driver "
     "is quiescent carry // bgnlint:allow(BGN007) plus a comment "
     "justifying why"},
    {"BGN008",
     "stale bgnlint:allow suppression",
     "the tag masks no finding on its line span — delete it; if it "
     "names no catalog rule, fix the rule ID"},
    {"BGN009",
     "include-graph layering violation",
     "src/sim includes no other src/ directory; src/flash and "
     "src/ssd may not include src/platforms or src/serve; "
     "directory-level include cycles are errors (DESIGN.md §16)"},
};

bool
startsWith(const std::string &s, std::string_view prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
isPunct(const Token &t, std::string_view s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

bool
isIdent(const Token &t, std::string_view s)
{
    return t.kind == TokKind::Identifier && t.text == s;
}

// ==================================================================
// Declaration tracking (for BGN002 / BGN005 name resolution).
// ==================================================================

enum class DeclKind { Unordered, Ordered, Floating };

struct Decl
{
    int line;
    DeclKind kind;
};

using DeclMap = std::map<std::string, std::vector<Decl>>;

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
const std::set<std::string> kOrderedTypes = {
    "map", "set", "multimap", "multiset", "vector",
    "deque", "list", "array", "span"};
const std::set<std::string> kFloatTypes = {"float", "double"};

/** Skip a balanced <...> starting at the '<' token; returns the index
 *  one past the matching '>' (or tokens.size() when unbalanced). */
std::size_t
skipAngles(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Punct)
            continue;
        if (t[i].text == "<")
            ++depth;
        else if (t[i].text == "<<")
            depth += 2;
        else if (t[i].text == ">")
            --depth;
        else if (t[i].text == ">>")
            depth -= 2;
        else if (t[i].text == ";")
            return i; // Not a template after all (a < comparison).
        if (depth <= 0)
            return i + 1;
    }
    return t.size();
}

/**
 * One pass over a file's tokens recording container/floating-point
 * declarations: `TYPE<...> [&*] NAME` and `float|double NAME`.
 */
void
collectDecls(const std::vector<Token> &t, DeclMap &decls,
             std::set<std::string> &globalUnordered)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier)
            continue;
        const std::string &id = t[i].text;

        DeclKind kind;
        std::size_t after = 0;
        if ((kUnorderedTypes.count(id) || kOrderedTypes.count(id)) &&
            i + 1 < t.size() && t[i + 1].kind == TokKind::Punct &&
            t[i + 1].text == "<") {
            kind = kUnorderedTypes.count(id) ? DeclKind::Unordered
                                             : DeclKind::Ordered;
            after = skipAngles(t, i + 1);
        } else if (kFloatTypes.count(id)) {
            // Skip template-argument positions: vector<double> etc.
            if (i > 0 && t[i - 1].kind == TokKind::Punct &&
                (t[i - 1].text == "<" || t[i - 1].text == ","))
                continue;
            kind = DeclKind::Floating;
            after = i + 1;
        } else {
            continue;
        }

        // Optional ref/pointer sigils, then the declared name.
        while (after < t.size() && t[after].kind == TokKind::Punct &&
               (t[after].text == "&" || t[after].text == "*"))
            ++after;
        if (after >= t.size() ||
            t[after].kind != TokKind::Identifier)
            continue;
        const Token &name = t[after];
        decls[name.text].push_back({name.line, kind});
        if (kind == DeclKind::Unordered)
            globalUnordered.insert(name.text);
    }
}

/** Nearest same-file declaration of @p name at or before @p line. */
const Decl *
nearestDecl(const DeclMap &decls, const std::string &name, int line)
{
    auto it = decls.find(name);
    if (it == decls.end())
        return nullptr;
    const Decl *best = nullptr;
    for (const Decl &d : it->second)
        if (d.line <= line && (!best || d.line > best->line))
            best = &d;
    return best;
}

// ==================================================================
// Suppression / tag comments.
// ==================================================================

/** One bgnlint:allow(ID) occurrence; BGN008 reports it when no
 *  finding of rule @ref id was suppressed through it. */
struct AllowTag
{
    std::string id;
    int line;          ///< Line the tag comment starts on.
    bool used = false; ///< Set when the tag suppresses a finding.
};

struct Annotations
{
    std::vector<AllowTag> tags;
    /** rule -> covered line -> index into @ref tags. */
    std::map<std::string, std::map<int, std::size_t>> allow;
    /** Lines carrying a bgnlint:deterministic-order tag. */
    std::set<int> orderTag;
    /** Lines carrying a bgnlint:lane-owned tag (BGN007 table). */
    std::set<int> laneOwned;
};

Annotations
collectAnnotations(const std::vector<Token> &all)
{
    Annotations ann;
    for (const Token &tok : all) {
        if (tok.kind != TokKind::Comment)
            continue;
        const std::string &c = tok.text;
        int extra = static_cast<int>(
            std::count(c.begin(), c.end(), '\n'));
        if (c.find("bgnlint:deterministic-order") != std::string::npos)
            for (int l = tok.line; l <= tok.line + extra + 1; ++l)
                ann.orderTag.insert(l);
        if (c.find("bgnlint:lane-owned") != std::string::npos)
            for (int l = tok.line; l <= tok.line + extra + 1; ++l)
                ann.laneOwned.insert(l);
        std::size_t pos = c.find("bgnlint:allow(");
        while (pos != std::string::npos) {
            std::size_t open = pos + 14;
            std::size_t close = c.find(')', open);
            if (close == std::string::npos)
                break;
            std::stringstream ids(c.substr(open, close - open));
            std::string id;
            while (std::getline(ids, id, ',')) {
                id.erase(std::remove_if(id.begin(), id.end(),
                                        [](unsigned char ch) {
                                            return std::isspace(ch);
                                        }),
                         id.end());
                if (id.empty())
                    continue;
                ann.tags.push_back({id, tok.line, false});
                // The annotation covers its own line span plus the
                // following line, so both trailing and preceding-line
                // comments work.
                for (int l = tok.line; l <= tok.line + extra + 1; ++l)
                    ann.allow[id].emplace(l, ann.tags.size() - 1);
            }
            pos = c.find("bgnlint:allow(", close);
        }
    }
    return ann;
}

// ==================================================================
// Lane-owned symbol table (BGN007).
// ==================================================================

/**
 * Cross-TU table of lane-owned state (DESIGN.md §16). Two name sets:
 *
 *  - @ref containers — names ever declared as a vector/array whose
 *    element type is a per-device lane (Batch::Lane, DevicePort,
 *    DeviceContext) or a per-device shard
 *    (TraceSink, VertexCache, EventQueue, possibly unique_ptr
 *    wrapped), plus any container declaration carrying a
 *    `bgnlint:lane-owned` tag;
 *  - @ref members — field names of the lane classes themselves, so a
 *    badly-indexed write is caught even when the container name is
 *    not in the table (`anything[0].tally.merge(...)`).
 */
struct LaneTable
{
    std::set<std::string> containers;
    std::set<std::string> members;
};

const std::set<std::string> kLaneElementTypes = {
    "Lane",      "DevicePort",  "DeviceContext",
    "TraceSink", "VertexCache", "EventQueue"};
const std::set<std::string> kLaneClasses = {"Lane", "DeviceContext",
                                            "DevicePort"};

/** Record container declarations whose element type is a lane type:
 *  `vector<...LaneType...> [&*] NAME`. */
void
collectLaneContainers(const std::vector<Token> &t, LaneTable &lane)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier ||
            !(t[i].text == "vector" || t[i].text == "array"))
            continue;
        if (i + 1 >= t.size() || !isPunct(t[i + 1], "<"))
            continue;
        std::size_t after = skipAngles(t, i + 1);
        bool laneElem = false;
        for (std::size_t j = i + 2; j + 1 < after; ++j)
            if (t[j].kind == TokKind::Identifier &&
                kLaneElementTypes.count(t[j].text) &&
                // A name followed by :: is a scope qualifier
                // (EventQueue::TimedEvent), not the element type.
                !isPunct(t[j + 1], "::"))
                laneElem = true;
        if (!laneElem)
            continue;
        while (after < t.size() && t[after].kind == TokKind::Punct &&
               (t[after].text == "&" || t[after].text == "*"))
            ++after;
        if (after < t.size() && t[after].kind == TokKind::Identifier)
            lane.containers.insert(t[after].text);
    }
}

/** Record the field names of lane-class bodies: inside
 *  `struct|class LaneClass ... { ... }`, a depth-1 identifier
 *  followed by `;`, `=` or `{` (and preceded by type tokens) is a
 *  field; identifiers followed by `(` are methods and skipped. */
void
collectLaneMembers(const std::vector<Token> &t, LaneTable &lane)
{
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier ||
            !kLaneClasses.count(t[i].text))
            continue;
        if (!(isIdent(t[i - 1], "struct") || isIdent(t[i - 1], "class")))
            continue;
        // Skip to the class body's '{' (past any base clause); give
        // up at ';' (forward declaration).
        std::size_t open = i + 1;
        while (open < t.size() && !isPunct(t[open], "{") &&
               !isPunct(t[open], ";"))
            ++open;
        if (open >= t.size() || !isPunct(t[open], "{"))
            continue;
        int depth = 0;
        for (std::size_t j = open; j < t.size(); ++j) {
            if (isPunct(t[j], "{")) {
                ++depth;
            } else if (isPunct(t[j], "}")) {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && j > 0 &&
                       t[j].kind == TokKind::Identifier &&
                       j + 1 < t.size()) {
                bool fieldish = isPunct(t[j + 1], ";") ||
                                isPunct(t[j + 1], "=") ||
                                isPunct(t[j + 1], "{");
                bool typed =
                    t[j - 1].kind == TokKind::Identifier ||
                    isPunct(t[j - 1], ">") || isPunct(t[j - 1], "*") ||
                    isPunct(t[j - 1], "&");
                if (fieldish && typed)
                    lane.members.insert(t[j].text);
            }
        }
    }
}

// ==================================================================
// Per-file rule pass.
// ==================================================================

struct FileContext
{
    const FileInput *input;
    std::vector<Token> all;  ///< Including comments.
    std::vector<Token> code; ///< Comments stripped.
    DeclMap decls;
    Annotations ann;
};

class Linter
{
  public:
    Linter(const std::set<std::string> &global_unordered,
           const LaneTable &lane_table)
        : globalUnordered(global_unordered), laneTable(lane_table)
    {
    }

    /** Rules BGN001–BGN007 on one file. */
    void runCore(FileContext &ctx);
    /** BGN009 over the whole tree (cross-file include graph). */
    void runIncludeGraph(std::vector<FileContext> &ctxs);
    /** BGN008 on one file — must run after every other rule has had
     *  a chance to consume the file's allow tags. */
    void runStale(FileContext &ctx);

    std::vector<Finding> take() { return std::move(out); }

  private:
    const std::set<std::string> &globalUnordered;
    const LaneTable &laneTable;
    std::vector<Finding> out;

    void emit(FileContext &ctx, int line, const std::string &rule,
              std::string message)
    {
        bool suppressed = false;
        auto it = ctx.ann.allow.find(rule);
        if (it != ctx.ann.allow.end()) {
            auto at = it->second.find(line);
            if (at != it->second.end()) {
                suppressed = true;
                ctx.ann.tags[at->second].used = true;
            }
        }
        out.push_back({ctx.input->path, line, rule,
                       std::move(message), suppressed});
    }

    bool unorderedAt(const FileContext &ctx, const std::string &name,
                     int line) const
    {
        if (const Decl *d = nearestDecl(ctx.decls, name, line))
            return d->kind == DeclKind::Unordered;
        return globalUnordered.count(name) != 0;
    }

    bool floatingAt(const FileContext &ctx, const std::string &name,
                    int line) const
    {
        const Decl *d = nearestDecl(ctx.decls, name, line);
        return d && d->kind == DeclKind::Floating;
    }

    void rule001(FileContext &ctx);
    void rule002(FileContext &ctx);
    void rule003(FileContext &ctx);
    void rule004(FileContext &ctx);
    void rule005(FileContext &ctx);
    void rule006(FileContext &ctx);
    void rule007(FileContext &ctx);
    void rule008(FileContext &ctx);
};

// ---- BGN001: wall clock / ambient randomness ----------------------

const std::set<std::string> kClockTypes = {
    "system_clock", "steady_clock", "high_resolution_clock"};
const std::set<std::string> kTimeCalls = {
    "time", "gettimeofday", "clock_gettime", "timespec_get"};

void
Linter::rule001(FileContext &ctx)
{
    const std::string &path = ctx.input->path;
    bool simCode = startsWith(path, "src/") ||
                   (startsWith(path, "tools/") &&
                    !startsWith(path, "tools/bgnlint/"));
    if (!simCode)
        return;
    const auto &t = ctx.code;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier)
            continue;
        const std::string &id = t[i].text;
        bool memberCall =
            i > 0 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"));
        bool called = i + 1 < t.size() && isPunct(t[i + 1], "(");

        if (id == "random_device") {
            emit(ctx, t[i].line, "BGN001",
                 "std::random_device is nondeterministic; seed a "
                 "sim::Pcg32 instead");
        } else if (kClockTypes.count(id)) {
            emit(ctx, t[i].line, "BGN001",
                 "chrono " + id +
                     " reads the wall clock; simulation time is "
                     "sim::Tick only");
        } else if ((id == "rand" || id == "srand") && called &&
                   !memberCall) {
            emit(ctx, t[i].line, "BGN001",
                 id + "() uses hidden global state; use sim::Pcg32 / "
                      "sim::keyedRandom()");
        } else if (kTimeCalls.count(id) && called && !memberCall) {
            emit(ctx, t[i].line, "BGN001",
                 id + "() reads the wall clock; simulation time is "
                      "sim::Tick only");
        }
    }
}

// ---- BGN002: unordered-container iteration -------------------------

const std::set<std::string> kBeginNames = {"begin", "cbegin", "rbegin",
                                           "crbegin"};

void
Linter::rule002(FileContext &ctx)
{
    const auto &t = ctx.code;
    for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for:  for ( decl : EXPR )
        if (isIdent(t[i], "for") && i + 1 < t.size() &&
            isPunct(t[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (isPunct(t[j], "("))
                    ++depth;
                else if (isPunct(t[j], ")")) {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (depth == 1 && isPunct(t[j], ":") && !colon) {
                    colon = j;
                }
            }
            if (colon && close > colon) {
                // Last identifier of the iterated expression. An
                // expression containing a call (e.g. a sorted key
                // snapshot) yields a fresh value of unknown — by
                // construction ordered — type; skip.
                std::string name;
                int nameLine = t[colon].line;
                for (std::size_t j = colon + 1; j < close; ++j) {
                    if (isPunct(t[j], "(")) {
                        name.clear();
                        break;
                    }
                    if (t[j].kind == TokKind::Identifier) {
                        name = t[j].text;
                        nameLine = t[j].line;
                    }
                }
                if (!name.empty() && unorderedAt(ctx, name, nameLine))
                    emit(ctx, t[i].line, "BGN002",
                         "range-for over unordered container '" +
                             name +
                             "' — hash order leaks into results; use "
                             "an ordered container or sort a snapshot");
            }
        }
        // Iterator walk:  X.begin() / X->cbegin() ...
        if (t[i].kind == TokKind::Identifier && i + 3 < t.size() &&
            (isPunct(t[i + 1], ".") || isPunct(t[i + 1], "->")) &&
            t[i + 2].kind == TokKind::Identifier &&
            kBeginNames.count(t[i + 2].text) &&
            isPunct(t[i + 3], "(") &&
            unorderedAt(ctx, t[i].text, t[i].line)) {
            emit(ctx, t[i].line, "BGN002",
                 "iterator over unordered container '" + t[i].text +
                     "' — hash order leaks into results; use an "
                     "ordered container or sort a snapshot");
        }
    }
}

// ---- BGN003: raw new/delete ----------------------------------------

void
Linter::rule003(FileContext &ctx)
{
    if (startsWith(ctx.input->path, "src/sim/"))
        return; // The SBO kernel owns raw storage by design.
    const auto &t = ctx.code;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier)
            continue;
        if (t[i].text == "new") {
            if (i > 0 && isIdent(t[i - 1], "operator"))
                continue;
            emit(ctx, t[i].line, "BGN003",
                 "raw 'new' outside src/sim/ — use std::make_unique "
                 "or a container");
        } else if (t[i].text == "delete") {
            if (i > 0 && isPunct(t[i - 1], "="))
                continue; // Deleted special member.
            emit(ctx, t[i].line, "BGN003",
                 "raw 'delete' outside src/sim/ — ownership belongs "
                 "in std::unique_ptr / containers");
        }
    }
}

// ---- BGN004: metric-name grammar -----------------------------------

const std::set<std::string> kRegistryAccessors = {
    "counter", "gauge", "accum", "histogram", "interval"};
const std::set<std::string> kMetricRoots = {
    "flash", "ssd", "engine", "accel", "energy", "serve", "run",
    "array", "model"};
// The cache namespace (engine.cache.*, array.devD.cache.*) has a
// closed leaf set: a "cache" segment must be followed by exactly one
// of these, so a misspelled cache metric fails lint instead of
// silently forking the namespace.
const std::set<std::string> kCacheLeaves = {
    "hits", "misses", "fills", "evictions", "bytes", "hit_rate"};
// The health namespace (array.devD.health.*) has a closed leaf set,
// same rationale: the fault-injection instruments must not fork.
const std::set<std::string> kHealthLeaves = {"latency_ewma_us",
                                             "samples", "alive"};
// engine.router.* covers both the channel router (DESIGN.md §6) and
// the replica router (§17); a closed leaf set keeps the two from
// silently forking.
const std::set<std::string> kRouterLeaves = {
    "commands_routed", "frames_parsed", "cross_channel", "peak_queue",
    "replica_fallbacks"};
// The model namespace has a closed second segment: a model-zoo kind
// or the algo sub-namespace (which take further leaves), or one of
// the session-level leaves (terminal). A misspelled model metric
// fails lint instead of silently forking the namespace.
const std::set<std::string> kModelGroups = {"gcn", "gin", "gat",
                                            "algo"};
const std::set<std::string> kModelLeaves = {
    "kind_id", "hops",       "fanout_total",
    "feature_dim", "hidden_dim", "edge_coeff_bytes"};

bool
metricNameOk(const std::string &s)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
        if (c == '.') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    if (parts.size() < 2 || !kMetricRoots.count(parts[0]))
        return false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        if (parts[i].empty())
            return false;
        for (char c : parts[i])
            if (!(std::islower(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) ||
                  c == '_'))
                return false;
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
        if (parts[i] == "cache") {
            // "cache" must be second-to-last with a known leaf.
            if (i + 2 != parts.size() ||
                !kCacheLeaves.count(parts[i + 1]))
                return false;
        } else if (parts[i] == "health") {
            if (i + 2 != parts.size() ||
                !kHealthLeaves.count(parts[i + 1]))
                return false;
        } else if (parts[i] == "router") {
            if (i + 2 != parts.size() ||
                !kRouterLeaves.count(parts[i + 1]))
                return false;
        }
    }
    if (parts[0] == "model") {
        if (kModelGroups.count(parts[1]))
            return parts.size() >= 3; // model.<kind|algo>.<leaf...>
        // Session-level leaves are terminal two-segment names.
        return parts.size() == 2 && kModelLeaves.count(parts[1]) != 0;
    }
    return true;
}

void
Linter::rule004(FileContext &ctx)
{
    const auto &t = ctx.code;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (!(isPunct(t[i], ".") || isPunct(t[i], "->")))
            continue;
        if (t[i + 1].kind != TokKind::Identifier ||
            !kRegistryAccessors.count(t[i + 1].text))
            continue;
        if (!isPunct(t[i + 2], "(") ||
            t[i + 3].kind != TokKind::String)
            continue;
        const std::string &name = t[i + 3].text;
        if (!metricNameOk(name))
            emit(ctx, t[i + 3].line, "BGN004",
                 "metric name \"" + name +
                     "\" violates the §10 grammar: "
                     "(flash|ssd|engine|accel|energy|serve|run|array|"
                     "model).lower_snake[.lower_snake...]; a cache "
                     "segment takes exactly one leaf of hits|misses|"
                     "fills|evictions|bytes|hit_rate; a health segment "
                     "takes exactly one leaf of latency_ewma_us|"
                     "samples|alive; a router segment takes exactly "
                     "one leaf of commands_routed|frames_parsed|"
                     "cross_channel|peak_queue|replica_fallbacks; "
                     "the model root "
                     "takes gcn|gin|gat|algo (with leaves) or a "
                     "session leaf (kind_id|hops|fanout_total|"
                     "feature_dim|hidden_dim|edge_coeff_bytes)");
    }
}

// ---- BGN005: float accumulation in parallel regions ----------------

const std::set<std::string> kParallelCalls = {"parallelMap", "runGrid"};

void
Linter::rule005(FileContext &ctx)
{
    const auto &t = ctx.code;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier ||
            !kParallelCalls.count(t[i].text))
            continue;
        std::size_t open = i + 1;
        if (open < t.size() && isPunct(t[open], "<"))
            open = skipAngles(t, open);
        if (open >= t.size() || !isPunct(t[open], "("))
            continue;
        int depth = 0;
        std::size_t close = open;
        for (std::size_t j = open; j < t.size(); ++j) {
            if (isPunct(t[j], "("))
                ++depth;
            else if (isPunct(t[j], ")") && --depth == 0) {
                close = j;
                break;
            }
        }
        for (std::size_t j = open + 1; j < close; ++j) {
            if (!(isPunct(t[j], "+=") || isPunct(t[j], "-=")))
                continue;
            if (j == 0 || t[j - 1].kind != TokKind::Identifier)
                continue;
            const std::string &lhs = t[j - 1].text;
            if (!floatingAt(ctx, lhs, t[j].line))
                continue;
            if (ctx.ann.orderTag.count(t[j].line) ||
                ctx.ann.orderTag.count(t[i].line))
                continue;
            emit(ctx, t[j].line, "BGN005",
                 "float accumulation into '" + lhs + "' inside " +
                     t[i].text +
                     "() — FP addition does not commute; make the "
                     "reduction order deterministic and tag it "
                     "// bgnlint:deterministic-order");
        }
    }
}

// ---- BGN006: direct schedule on a foreign device queue -------------

const std::set<std::string> kScheduleNames = {"schedule", "scheduleAt",
                                              "bulkScheduleAt"};

void
Linter::rule006(FileContext &ctx)
{
    const std::string &path = ctx.input->path;
    bool simCode = startsWith(path, "src/") ||
                   (startsWith(path, "tools/") &&
                    !startsWith(path, "tools/bgnlint/"));
    if (!simCode)
        return;
    const auto &t = ctx.code;
    for (std::size_t i = 1; i < t.size(); ++i) {
        // `EXPR.queue->scheduleAt(` / `EXPR->queue.schedule(`: reaching
        // through a member named `queue` marks the queue as belonging
        // to some *other* object — a station's own queue is named
        // plainly (`queue.scheduleAt(...)`, `homeQueue(dev)...`).
        if (t[i].kind != TokKind::Identifier || t[i].text != "queue")
            continue;
        if (!(isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")))
            continue;
        std::size_t m = i + 1; // Member access after `queue`...
        if (m + 1 < t.size() && isPunct(t[m], "(") &&
            isPunct(t[m + 1], ")"))
            m += 2; // ...or after a `queue()` accessor call.
        if (m + 2 >= t.size() ||
            !(isPunct(t[m], ".") || isPunct(t[m], "->")))
            continue;
        if (t[m + 1].kind != TokKind::Identifier ||
            !kScheduleNames.count(t[m + 1].text) ||
            !isPunct(t[m + 2], "("))
            continue;
        emit(ctx, t[m + 1].line, "BGN006",
             t[m + 1].text +
                 "() on a foreign device queue bypasses conservative "
                 "sync; append the event to the posting lane's outbox "
                 "(DESIGN.md §13) or, at a sanctioned sync seam, tag "
                 "the line // bgnlint:allow(BGN006)");
    }
}

// ---- BGN007: write to lane-owned state ----------------------------

/** Calls that mutate the object they are invoked on — used to decide
 *  whether a member chain hanging off a subscripted lane access
 *  writes lane-owned state. Conservative by construction: the rule
 *  only fires when the subscript is not a plain device identifier. */
const std::set<std::string> kMutatingCalls = {
    "absorb",       "acquire",      "add",         "assign",
    "bulkScheduleAt", "clear",      "cover",       "drain",
    "emplace_back", "erase",        "insert",      "merge",
    "pop_back",     "post",         "push_back",   "record",
    "reserve",      "reset",        "resize",      "run",
    "runUntil",     "schedule",     "scheduleAt",  "setGnnConfig",
    "setModel",     "setTraceSink", "setValidator", "swap"};

const std::set<std::string> kAssignOps = {
    "=",  "+=", "-=",  "*=",  "/=", "%=",
    "|=", "&=", "^=", "<<=", ">>=", "++", "--"};

/** Skip a balanced (...) starting at the '(' token. */
std::size_t
skipParens(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (isPunct(t[i], "("))
            ++depth;
        else if (isPunct(t[i], ")") && --depth == 0)
            return i + 1;
    }
    return t.size();
}

void
Linter::rule007(FileContext &ctx)
{
    const std::string &path = ctx.input->path;
    bool simCode = startsWith(path, "src/") ||
                   (startsWith(path, "tools/") &&
                    !startsWith(path, "tools/bgnlint/"));
    // The conservative-sync driver implements the window protocol
    // this rule enforces; it owns every lane by construction.
    if (!simCode || startsWith(path, "src/sim/parallel_sim."))
        return;
    const auto &t = ctx.code;

    for (std::size_t i = 0; i < t.size(); ++i) {
        // (a) Subscripted access: NAME [ idx ] chain...
        if (t[i].kind == TokKind::Identifier && i + 1 < t.size() &&
            isPunct(t[i + 1], "[")) {
            const std::string &container = t[i].text;
            // First subscript decides ownership: a single plain
            // identifier is "indexed by the owning device".
            int depth = 0;
            std::size_t closeIdx = 0;
            std::size_t idxTokens = 0;
            bool idxIdent = false;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (isPunct(t[j], "[")) {
                    ++depth;
                } else if (isPunct(t[j], "]")) {
                    if (--depth == 0) {
                        closeIdx = j;
                        break;
                    }
                } else if (depth == 1) {
                    ++idxTokens;
                    idxIdent = t[j].kind == TokKind::Identifier;
                }
            }
            if (!closeIdx)
                continue;
            bool deviceIndexed = idxTokens == 1 && idxIdent;

            // Walk the trailing member chain; further subscripts are
            // fine (the device dimension is the first one).
            std::size_t j = closeIdx + 1;
            std::string firstMember;
            bool mutated = false;
            while (j < t.size()) {
                if (isPunct(t[j], "[")) {
                    depth = 0;
                    for (; j < t.size(); ++j) {
                        if (isPunct(t[j], "["))
                            ++depth;
                        else if (isPunct(t[j], "]") && --depth == 0) {
                            ++j;
                            break;
                        }
                    }
                    continue;
                }
                if ((isPunct(t[j], ".") || isPunct(t[j], "->")) &&
                    j + 1 < t.size() &&
                    t[j + 1].kind == TokKind::Identifier) {
                    const std::string &member = t[j + 1].text;
                    if (firstMember.empty())
                        firstMember = member;
                    if (j + 2 < t.size() && isPunct(t[j + 2], "(")) {
                        if (kMutatingCalls.count(member))
                            mutated = true;
                        j = skipParens(t, j + 2);
                    } else {
                        j += 2;
                    }
                    continue;
                }
                break;
            }
            if (!mutated && j < t.size() &&
                t[j].kind == TokKind::Punct &&
                kAssignOps.count(t[j].text))
                mutated = true;

            bool laneState =
                laneTable.containers.count(container) != 0 ||
                (!firstMember.empty() &&
                 laneTable.members.count(firstMember) != 0);
            if (mutated && !deviceIndexed && laneState)
                emit(ctx, t[i].line, "BGN007",
                     "write to lane-owned state '" + container +
                         "[...]' not indexed by a single owning-"
                         "device identifier — per-device state is "
                         "touched only through its owner's lane "
                         "(DESIGN.md §16); a quiescent merge/setup "
                         "seam is tagged // bgnlint:allow(BGN007)");
        }

        // (b) Mutable range-for over a lane container.
        if (isIdent(t[i], "for") && i + 1 < t.size() &&
            isPunct(t[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (isPunct(t[j], "("))
                    ++depth;
                else if (isPunct(t[j], ")")) {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (depth == 1 && isPunct(t[j], ":") && !colon) {
                    colon = j;
                }
            }
            if (!colon || close <= colon)
                continue;
            bool hasRef = false, hasConst = false;
            for (std::size_t j = i + 2; j < colon; ++j) {
                if (isPunct(t[j], "&") || isPunct(t[j], "&&"))
                    hasRef = true;
                if (isIdent(t[j], "const"))
                    hasConst = true;
            }
            // Last identifier of the iterated expression; a call in
            // the expression yields a fresh value — skip, as BGN002.
            std::string name;
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (isPunct(t[j], "(")) {
                    name.clear();
                    break;
                }
                if (t[j].kind == TokKind::Identifier)
                    name = t[j].text;
            }
            if (hasRef && !hasConst && !name.empty() &&
                laneTable.containers.count(name))
                emit(ctx, t[i].line, "BGN007",
                     "mutable range-for over lane container '" + name +
                         "' touches every device's lane (DESIGN.md "
                         "§16); only a quiescent merge/setup seam may "
                         "do this, tagged // bgnlint:allow(BGN007) "
                         "with a justification");
        }
    }
}

// ---- BGN008: stale allow suppressions ------------------------------

void
Linter::rule008(FileContext &ctx)
{
    // The linter's own sources spell out annotation syntax in doc
    // comments; auditing those for staleness is self-reference.
    if (startsWith(ctx.input->path, "tools/bgnlint/"))
        return;
    std::set<std::string> catalog;
    for (const RuleInfo &r : kRules)
        catalog.insert(r.id);
    for (const AllowTag &tag : ctx.ann.tags) {
        // allow(BGN008) tags only mask BGN008 findings; auditing them
        // for staleness would chase its own tail.
        if (tag.id == "BGN008")
            continue;
        if (!catalog.count(tag.id))
            emit(ctx, tag.line, "BGN008",
                 "bgnlint:allow(" + tag.id +
                     ") names no catalog rule — fix the ID or delete "
                     "the tag");
        else if (!tag.used)
            emit(ctx, tag.line, "BGN008",
                 "stale suppression: bgnlint:allow(" + tag.id +
                     ") masks no finding on its line span — delete "
                     "it");
    }
}

// ---- BGN009: include-graph layering --------------------------------

void
Linter::runIncludeGraph(std::vector<FileContext> &ctxs)
{
    // Directory-level include graph over src/: an edge src/A ->
    // src/B for every `#include "B/..."` in a file under src/A.
    struct Site
    {
        FileContext *ctx;
        int line;
        std::string from, to;
    };
    std::set<std::string> srcDirs;
    for (const FileContext &ctx : ctxs) {
        const std::string &p = ctx.input->path;
        if (!startsWith(p, "src/"))
            continue;
        std::size_t slash = p.find('/', 4);
        if (slash != std::string::npos)
            srcDirs.insert(p.substr(4, slash - 4));
    }

    std::vector<Site> sites;
    std::map<std::string, std::set<std::string>> adj;
    for (FileContext &ctx : ctxs) {
        const std::string &p = ctx.input->path;
        if (!startsWith(p, "src/"))
            continue;
        std::size_t slash = p.find('/', 4);
        if (slash == std::string::npos)
            continue;
        std::string from = p.substr(4, slash - 4);
        const auto &t = ctx.code;
        for (std::size_t i = 0; i + 2 < t.size(); ++i) {
            if (!isPunct(t[i], "#") || !isIdent(t[i + 1], "include") ||
                t[i + 2].kind != TokKind::String)
                continue;
            const std::string &inc = t[i + 2].text;
            std::size_t sl = inc.find('/');
            if (sl == std::string::npos)
                continue; // Same-directory include.
            std::string to = inc.substr(0, sl);
            if (!srcDirs.count(to) || to == from)
                continue;
            sites.push_back({&ctx, t[i + 2].line, from, to});
            adj[from].insert(to);
        }
    }

    // Reachability closure for cycle detection (the graph is a
    // handful of directories; a DFS per node is plenty).
    auto reaches = [&adj](const std::string &a,
                          const std::string &b) {
        std::set<std::string> seen;
        std::vector<std::string> stack = {a};
        while (!stack.empty()) {
            std::string d = stack.back();
            stack.pop_back();
            if (d == b)
                return true;
            if (!seen.insert(d).second)
                continue;
            auto it = adj.find(d);
            if (it != adj.end())
                for (const std::string &n : it->second)
                    stack.push_back(n);
        }
        return false;
    };

    for (const Site &s : sites) {
        if (s.from == "sim")
            emit(*s.ctx, s.line, "BGN009",
                 "src/sim is the foundation layer and may include no "
                 "other src/ directory, but includes src/" + s.to);
        else if ((s.from == "flash" || s.from == "ssd") &&
                 (s.to == "platforms" || s.to == "serve"))
            emit(*s.ctx, s.line, "BGN009",
                 "device-level src/" + s.from +
                     " may not include orchestration layer src/" +
                     s.to);
        if (reaches(s.to, s.from))
            emit(*s.ctx, s.line, "BGN009",
                 "include cycle: src/" + s.from + " -> src/" + s.to +
                     " closes a loop back to src/" + s.from +
                     " — break the layering cycle");
    }
}

void
Linter::runCore(FileContext &ctx)
{
    rule001(ctx);
    rule002(ctx);
    rule003(ctx);
    rule004(ctx);
    rule005(ctx);
    rule006(ctx);
    rule007(ctx);
}

void
Linter::runStale(FileContext &ctx)
{
    rule008(ctx);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

// ==================================================================
// Public API.
// ==================================================================

const std::vector<RuleInfo> &
ruleCatalog()
{
    return kRules;
}

std::vector<Finding>
lintFiles(const std::vector<FileInput> &files, const LintOptions &opt)
{
    // Pass 1: tokenize everything and build the cross-file tables —
    // names ever declared as unordered containers (members declared
    // in headers are iterated from other translation units) and the
    // lane-owned symbol table for BGN007.
    std::vector<FileContext> ctxs(files.size());
    std::set<std::string> globalUnordered;
    LaneTable laneTable;
    for (std::size_t i = 0; i < files.size(); ++i) {
        ctxs[i].input = &files[i];
        ctxs[i].all = tokenize(files[i].content);
        for (const Token &tok : ctxs[i].all)
            if (tok.kind != TokKind::Comment)
                ctxs[i].code.push_back(tok);
        collectDecls(ctxs[i].code, ctxs[i].decls, globalUnordered);
        ctxs[i].ann = collectAnnotations(ctxs[i].all);
        collectLaneContainers(ctxs[i].code, laneTable);
        collectLaneMembers(ctxs[i].code, laneTable);
        // A container declaration tagged bgnlint:lane-owned joins
        // the table by name, whatever its element type.
        for (const auto &[name, decls] : ctxs[i].decls)
            for (const Decl &d : decls)
                if (d.kind != DeclKind::Floating &&
                    ctxs[i].ann.laneOwned.count(d.line))
                    laneTable.containers.insert(name);
    }

    // Pass 2: per-file rules BGN001–BGN007, then the cross-file
    // include graph (BGN009), and last the staleness audit (BGN008)
    // — it must see which allow tags the other rules consumed. All
    // rules always run; onlyRules filters post-hoc so BGN008's
    // notion of "masks a finding" never depends on the filter.
    std::vector<Finding> all;
    Linter linter(globalUnordered, laneTable);
    for (FileContext &ctx : ctxs)
        linter.runCore(ctx);
    linter.runIncludeGraph(ctxs);
    for (FileContext &ctx : ctxs)
        linter.runStale(ctx);
    all = linter.take();

    if (!opt.onlyRules.empty()) {
        std::set<std::string> keep(opt.onlyRules.begin(),
                                   opt.onlyRules.end());
        std::erase_if(all, [&](const Finding &f) {
            return keep.count(f.rule) == 0;
        });
    }
    if (!opt.showSuppressed)
        std::erase_if(all,
                      [](const Finding &f) { return f.suppressed; });

    std::sort(all.begin(), all.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    return all;
}

std::vector<FileInput>
loadTree(const std::filesystem::path &root,
         const std::vector<std::string> &paths, std::string *error)
{
    namespace fs = std::filesystem;
    const std::set<std::string> exts = {".h", ".hpp", ".cc", ".cpp",
                                        ".cxx"};
    std::vector<std::string> rel;

    auto skippable = [](const fs::path &dir) {
        std::string name = dir.filename().string();
        return name.rfind("build", 0) == 0 || name == "results" ||
               (!name.empty() && name[0] == '.');
    };

    for (const std::string &p : paths) {
        fs::path abs = root / p;
        std::error_code ec;
        if (fs::is_regular_file(abs, ec)) {
            rel.push_back(p);
        } else if (fs::is_directory(abs, ec)) {
            fs::recursive_directory_iterator it(
                abs, fs::directory_options::skip_permission_denied,
                ec),
                end;
            for (; it != end; ++it) {
                if (it->is_directory() && skippable(it->path())) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (!it->is_regular_file())
                    continue;
                if (!exts.count(it->path().extension().string()))
                    continue;
                rel.push_back(
                    fs::relative(it->path(), root).generic_string());
            }
        } else if (error) {
            *error = "no such file or directory: " + abs.string();
            return {};
        }
    }
    std::sort(rel.begin(), rel.end());
    rel.erase(std::unique(rel.begin(), rel.end()), rel.end());

    std::vector<FileInput> out;
    out.reserve(rel.size());
    for (const std::string &r : rel) {
        std::ifstream in(root / r, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        out.push_back({r, ss.str()});
    }
    return out;
}

void
writeText(std::ostream &os, const std::vector<Finding> &findings,
          bool hints)
{
    std::map<std::string, const RuleInfo *> byId;
    for (const RuleInfo &r : kRules)
        byId[r.id] = &r;
    for (const Finding &f : findings) {
        os << f.file << ":" << f.line << ": " << f.rule << ": "
           << f.message;
        if (f.suppressed)
            os << " [suppressed]";
        os << "\n";
        if (hints && byId.count(f.rule))
            os << "    hint: " << byId[f.rule]->hint << "\n";
    }
}

void
writeJson(std::ostream &os, const std::vector<Finding> &findings)
{
    std::map<std::string, int> counts;
    int unsuppressed = 0;
    for (const Finding &f : findings) {
        ++counts[f.rule];
        if (!f.suppressed)
            ++unsuppressed;
    }
    os << "{\n  \"version\": 1,\n  \"tool\": \"bgnlint\",\n"
       << "  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << f.rule << "\", \"message\": \""
           << jsonEscape(f.message) << "\", \"suppressed\": "
           << (f.suppressed ? "true" : "false") << "}";
    }
    os << (findings.empty() ? "" : "\n  ") << "],\n  \"counts\": {";
    bool first = true;
    for (const auto &[rule, count] : counts) {
        os << (first ? "" : ", ") << "\"" << rule << "\": " << count;
        first = false;
    }
    os << "},\n  \"total\": " << findings.size()
       << ",\n  \"unsuppressed\": " << unsuppressed << "\n}\n";
}

} // namespace bgnlint
