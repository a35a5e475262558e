/**
 * @file
 * The simulator benchmark: three canonical workloads, each driven
 * through the simulator's public entry points (WorkloadSpec::makeGraph,
 * dg::buildLayout, the PlatformSession constructor / runBatch / finish
 * / metrics, serve::serveWorkload, MetricRegistry::writeJson) and timed
 * from outside. See README.md for the metric table and the reason each
 * workload exists.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-out FILE]
 *
 * --trace 0 prints the end-to-end metrics: host times at jobs 1 plus
 * the simulated results. At jobs 1 every set-up and simulate call runs
 * on the calling thread, so host time is taken as that thread's CPU
 * time: the wall-clock a user waits for, minus the time the thread sat
 * descheduled on a shared host. A shared host also has slow spells
 * that stretch every timing alike, so the reported host times are
 * scaled to a fixed speed of a reference kernel timed in the same run.
 * Unscaled and wall-clock figures are printed too.
 * Host time at jobs N = min(nproc, 4) spreads about three times wider
 * from run to run (the device lanes spin at barriers), too wide to
 * gate on, so it is a per-layer metric. --trace 1 prints the per-layer
 * metrics: it alternates untraced and traced repetitions at jobs 1 (the
 * traced ones count and time every section fetch, so self time = span
 * - children is attributable), adds untraced jobs-N repetitions on the
 * array workloads for the parallel speed-up, and writes its spans to
 * --trace-out.
 *
 * Every repetition is checked: run.ok, no aborted command, per-device
 * commands summing to the total, and one metrics-snapshot fingerprint
 * across every repetition, job count and tracing mode. The last stdout
 * line is the JSON result; the exit code is 1 when any check failed.
 */

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness.h"
#include "directgraph/builder.h"
#include "directgraph/source.h"
#include "graph/dataset.h"
#include "platforms/runner.h"
#include "serve/serve.h"
#include "sim/executor.h"
#include "sim/rng.h"
#include "ssd/ftl.h"

namespace {

using namespace beacongnn;
using simbench::Lap;
using simbench::Metric;
using simbench::SpanLog;

/** One benchmark workload. All use amazon at its stock scale, hash
 *  partition, replication 1 and no faults. */
struct Workload
{
    const char *name;
    platforms::PlatformKind platform;
    unsigned devices;
    bool serve;              ///< Open-loop serving, else closed loop.
    std::uint32_t batchSize; ///< Closed loop: targets per batch.
    std::uint32_t batches;   ///< Closed loop: batches per repetition.
    std::uint64_t requests;  ///< Serving: requests per repetition.
    double cacheMB;          ///< Per-device mslru cache; 0 = none.
};

// Why each exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"train-array8", platforms::PlatformKind::BG2, 8, false, 512, 8, 0,
     0.0},
    {"serve-skew-array8", platforms::PlatformKind::BG2, 8, true, 0, 0,
     8192, 4.0},
    {"cc-host", platforms::PlatformKind::CC, 1, false, 128, 32, 0, 0.0},
};

constexpr const char *kGraph = "amazon";
constexpr double kServeRate = 4000.0; ///< req/s, Poisson.
constexpr double kServeZipf = 0.99;
/** Set-ups per run, spread evenly over it. One, with the reference
 *  kernel run before it, takes about 80 ms, so they cost about a tenth
 *  of a 30 s run. */
constexpr unsigned kSetups = 40;
constexpr unsigned kMinReps = 5; ///< Even when --seconds runs out first.
/** host_s and setup_s are this percentile of their samples' CPU times.
 *  Interference from other tenants (shared caches, memory bandwidth)
 *  only adds time; a low percentile ignores most of it and still
 *  ignores the few luckiest samples, as a minimum would not. */
constexpr double kHostPct = 10.0;
/** Reference-kernel CPU time on a quiet host (its 10th percentile on
 *  the host of README.md's baseline, in a quiet stretch). host_s and
 *  setup_s are scaled by it over the run's own reference percentile,
 *  which takes out most of a slow spell that lasts a whole run. */
constexpr double kRefNominalS = 0.0145;

/** LayoutSource that counts and times every fetch. Device lanes fetch
 *  concurrently, so the tallies are relaxed atomics. */
class CountingSource final : public dg::LayoutSource
{
  public:
    using LayoutSource::LayoutSource;

    std::optional<dg::SectionData>
    fetch(dg::DgAddress addr) const override
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::optional<dg::SectionData> s = LayoutSource::fetch(addr);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        _ns.fetch_add(static_cast<std::uint64_t>(ns),
                      std::memory_order_relaxed);
        _calls.fetch_add(1, std::memory_order_relaxed);
        return s;
    }

    std::uint64_t calls() const { return _calls.load(); }
    double seconds() const { return static_cast<double>(_ns.load()) * 1e-9; }

  private:
    mutable std::atomic<std::uint64_t> _calls{0};
    mutable std::atomic<std::uint64_t> _ns{0};
};

/** A laid-out workload plus the fetch source not currently in use. */
struct Prepared
{
    std::unique_ptr<platforms::WorkloadBundle> bundle;
    std::unique_ptr<dg::LayoutSource> spare;
    const CountingSource *counting = nullptr;
    bool countingActive = false;

    /** Sessions bind the source at construction: switch only between
     *  sessions. */
    void
    useCounting(bool on)
    {
        if (on != countingActive) {
            std::swap(bundle->source, spare);
            countingActive = on;
        }
    }
};

/** Host time of one set-up, split by layer. */
struct SetupTimes
{
    Lap graph;   ///< makeGraph + makeFeatures.
    Lap layout;  ///< Block reservation + buildLayout.
    Lap session; ///< PlatformSession constructor.
};

platforms::RunConfig
runConfig(const Workload &w)
{
    platforms::RunConfig rc;
    rc.topology.devices = w.devices;
    rc.topology.partition = platforms::PartitionPolicy::Hash;
    rc.topology.replication = 1;
    rc.cache.capacityMB = w.cacheMB;
    rc.cache.policy = cache::CachePolicy::MsLru;
    return rc;
}

serve::ServeConfig
serveConfig(const Workload &w, std::uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.arrivals.process = serve::ArrivalProcess::Poisson;
    cfg.arrivals.ratePerSec = kServeRate;
    cfg.arrivals.requests = w.requests;
    cfg.arrivals.seed = seed;
    cfg.arrivals.zipfTheta = kServeZipf;
    cfg.policy.maxBatch = 32;
    cfg.policy.timeout = sim::microseconds(200);
    return cfg;
}

/** Synthesize and lay out the graph (what platforms::makeBundle does,
 *  timed per layer) and construct one session. */
Prepared
prepare(const Workload &w, SpanLog &log, SetupTimes &t)
{
    const graph::WorkloadSpec &spec = graph::workload(kGraph);
    const flash::FlashConfig flash_cfg{};
    Prepared p;
    p.bundle = std::make_unique<platforms::WorkloadBundle>();
    platforms::WorkloadBundle &b = *p.bundle;
    b.name = spec.name;
    t.graph = log.time("graph.make_graph", [&] {
        b.graph = spec.makeGraph();
        b.features = spec.makeFeatures();
    });
    gnn::ModelConfig model;
    model.hops = 3;
    model.fanout = 3;
    model.hiddenDim = 128;
    model.seed = 0xBEAC0;
    model.featureDim = spec.featureDim;
    b.model = model;
    t.layout = log.time("directgraph.build_layout", [&] {
        // Raw volume with headroom for inflation, as makeBundle sizes it.
        const std::uint64_t raw =
            b.graph.numEdges() * 4 +
            std::uint64_t{b.graph.numNodes()} * b.features.bytesPerNode();
        const std::uint64_t block_bytes =
            std::uint64_t{flash_cfg.pagesPerBlock} * flash_cfg.pageSize;
        const std::uint64_t blocks =
            std::max<std::uint64_t>((raw * 3) / block_bytes + 16,
                                    flash_cfg.totalDies() + 8);
        ssd::Ftl ftl(flash_cfg);
        const auto reserved = ftl.reserveBlocks(blocks);
        if (reserved.empty()) {
            std::cerr << "simbench: cannot reserve " << blocks
                      << " blocks\n";
            std::exit(1);
        }
        b.layout = dg::buildLayout(b.graph, b.features, flash_cfg, reserved);
    });
    b.source = std::make_unique<dg::LayoutSource>(b.layout, b.graph);
    auto counting = std::make_unique<CountingSource>(b.layout, b.graph);
    p.counting = counting.get();
    p.spare = std::move(counting);

    const platforms::PlatformConfig platform =
        platforms::makePlatform(w.platform);
    const platforms::RunConfig rc = runConfig(w);
    t.session = log.time("platforms.session", [&] {
        platforms::PlatformSession session(platform, rc, b);
    });
    return p;
}

/** Everything one repetition measured. A few hundred bytes once its
 *  vectors are cleared, which every stored repetition but the first
 *  has (see run_one in main). */
struct Rep
{
    double hostS = 0;   ///< runBatch (or serveWorkload) calls + finish.
    double cpuS = 0;    ///< The same, in CPU time of the calling thread.
    double callS = 0;   ///< runBatch calls (or the serveWorkload call).
    std::vector<double> batchS; ///< Per runBatch; --trace 1 only.
    double finishS = 0;
    double exportS = 0;
    std::uint64_t fetchCalls = 0;
    double fetchS = 0;
    std::uint64_t commands = 0;
    std::uint64_t ops = 0;    ///< Batches or requests attempted.
    std::uint64_t failed = 0; ///< Of those, failed.
    std::string failure;      ///< First failed check, if any.
    std::vector<double> latUs; ///< Simulated latency per operation.
    std::uint64_t fp = 0;     ///< Metrics-snapshot fingerprint.
    unsigned id = 0;          ///< Its span-log repetition tag.
};

void
fail(Rep &r, const std::string &why)
{
    if (r.failure.empty())
        r.failure = why;
    r.failed = r.ops;
}

/** Shared epilogue: export, fingerprint and the conservation checks.
 *  Copies the snapshot to @p keep when it is not null. */
void
checkRun(Rep &r, SpanLog &log, const sim::MetricRegistry &reg,
         std::uint64_t commands,
         const std::vector<engines::DeviceTally> &per_device, bool ok,
         sim::MetricRegistry *keep)
{
    std::string snapshot;
    r.exportS = log.time("sim.write_json", [&] {
                       std::ostringstream os;
                       reg.writeJson(os);
                       snapshot = os.str();
                   }).wall;
    r.fp = simbench::fingerprint(snapshot);
    if (keep)
        *keep = reg;
    r.commands = commands;
    std::uint64_t sum = 0;
    for (const engines::DeviceTally &t : per_device)
        sum += t.commands;
    const sim::Counter *aborted = reg.findCounter("engine.aborted_commands");
    const sim::Gauge *run_ok = reg.findGauge("run.ok");
    if (!ok || !run_ok || run_ok->value() != 1.0)
        fail(r, "run.ok not set");
    if (aborted && aborted->value() != 0)
        fail(r, std::to_string(aborted->value()) + " aborted commands");
    if (sum != commands)
        fail(r, "per-device commands sum to " + std::to_string(sum) +
                    ", not " + std::to_string(commands));
    if (commands == 0)
        fail(r, "no flash command ran");
}

/** One closed-loop repetition: each batch starts at prepFree(). */
Rep
runOffline(const Workload &w, Prepared &p,
           const std::vector<std::vector<graph::NodeId>> &targets,
           SpanLog &log, sim::MetricRegistry *keep)
{
    Rep r;
    r.ops = targets.size();
    const platforms::PlatformConfig platform =
        platforms::makePlatform(w.platform);
    const platforms::RunConfig rc = runConfig(w);
    std::unique_ptr<platforms::PlatformSession> session;
    log.time("platforms.session", [&] {
        session = std::make_unique<platforms::PlatformSession>(
            platform, rc, *p.bundle);
    });
    platforms::RunResult rr;
    const Lap host = log.time("simulate", [&] {
        for (const auto &batch : targets) {
            const std::uint64_t calls0 = p.counting->calls();
            const double fetch0 = p.counting->seconds();
            platforms::BatchService svc;
            r.batchS.push_back(log.time("platforms.run_batch", [&] {
                                      svc = session->runBatch(
                                          session->prepFree(), batch);
                                  }).wall);
            if (p.countingActive) {
                r.fetchCalls += p.counting->calls() - calls0;
                const double f = p.counting->seconds() - fetch0;
                r.fetchS += f;
                log.addHidden(f);
            }
            if (!svc.ok) {
                ++r.failed;
                if (r.failure.empty())
                    r.failure = "a batch returned !ok";
            }
            r.latUs.push_back(sim::toMicros(svc.computeEnd - svc.prepStart));
        }
        r.finishS =
            log.time("platforms.finish", [&] { rr = session->finish(); })
                .wall;
    });
    r.hostS = host.wall;
    r.cpuS = host.cpu;
    for (double b : r.batchS)
        r.callS += b;
    checkRun(r, log, session->metrics(), rr.commands, rr.perDevice, rr.ok,
             keep);
    const std::uint64_t want = std::uint64_t{w.batchSize} * w.batches;
    if (rr.targets != want)
        fail(r, "ran " + std::to_string(rr.targets) + " targets, not " +
                    std::to_string(want));
    return r;
}

/** One open-loop serving repetition. Latency is timed from each
 *  request's simulated arrival, so a stall counts against later
 *  requests. */
Rep
runServe(const Workload &w, Prepared &p, const serve::ServeConfig &cfg,
         SpanLog &log, sim::MetricRegistry *keep)
{
    Rep r;
    r.ops = w.requests;
    const platforms::PlatformConfig platform =
        platforms::makePlatform(w.platform);
    const platforms::RunConfig rc = runConfig(w);
    std::vector<serve::RequestOutcome> outcomes;
    sim::MetricRegistry reg;
    serve::ServeResult sr;
    const std::uint64_t calls0 = p.counting->calls();
    const double fetch0 = p.counting->seconds();
    const Lap host = log.time("serve.serve_workload", [&] {
        sr = serve::serveWorkload(platform, rc, *p.bundle, cfg, &outcomes,
                                  &reg);
    });
    r.hostS = r.callS = host.wall;
    r.cpuS = host.cpu;
    if (p.countingActive) {
        r.fetchCalls = p.counting->calls() - calls0;
        r.fetchS = p.counting->seconds() - fetch0;
        log.addHidden(r.fetchS);
    }
    checkRun(r, log, reg, sr.commands, sr.perDevice, sr.ok, keep);
    if (outcomes.size() != w.requests || sr.requests != w.requests)
        fail(r, "served " + std::to_string(outcomes.size()) +
                    " requests, not " + std::to_string(w.requests));
    for (const serve::RequestOutcome &o : outcomes) {
        if (o.dispatch < o.arrival || o.prepDone < o.dispatch ||
            o.done < o.prepDone)
            fail(r, "request " + std::to_string(o.id) +
                        " completes out of order");
        r.latUs.push_back(sim::toMicros(o.total()));
    }
    std::sort(r.latUs.begin(), r.latUs.end());
    for (double pct : {50.0, 99.0}) {
        const double exact = simbench::exactPercentile(r.latUs, pct);
        const double est = sr.p(pct);
        if (!simbench::sameBucket(exact, est, sr.latencyUs.bucketWidth(),
                                  sr.latencyUs.buckets().size()))
            fail(r, "exact p" + std::to_string(static_cast<int>(pct)) +
                        " " + std::to_string(exact) +
                        " us is outside the histogram's bucket (" +
                        std::to_string(est) + " us)");
    }
    return r;
}

/** CPUs this process may run on (what nproc prints). */
unsigned
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Peak resident set of this process, MB (10^6 bytes). */
double
peakRssMB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/** Counter value, gauge value or accumulator mean; 0 when absent. */
double
regValue(const sim::MetricRegistry &reg, const std::string &name)
{
    if (const sim::Counter *c = reg.findCounter(name))
        return static_cast<double>(c->value());
    if (const sim::Gauge *g = reg.findGauge(name))
        return g->value();
    if (const sim::Accumulator *a = reg.findAccum(name))
        return a->mean();
    return 0.0;
}

double
safeDiv(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** One field of every element of @p items (values or pointers). */
template <typename T, typename Fn>
std::vector<double>
fieldOf(const std::vector<T> &items, Fn &&field)
{
    std::vector<double> v;
    for (const T &x : items) {
        if constexpr (std::is_pointer_v<T>)
            v.push_back(field(*x));
        else
            v.push_back(field(x));
    }
    return v;
}

/** Median of one field over a set of repetitions. */
template <typename Fn>
double
medianOf(const std::vector<const Rep *> &reps, Fn &&field)
{
    return simbench::median(fieldOf(reps, field));
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "simbench: " << why
              << "\nusage: simbench --workload "
                 "train-array8|serve-skew-array8|cc-host --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " needs a value");
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = !v.empty() && *end == '\0';
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            have_seconds = !v.empty() && *end == '\0' && o.seconds > 0;
        } else if (a == "--trace") {
            have_trace = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are "
              "required");
    return o;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** "p10 X, median Y" of a sample, for the human-readable lines. */
std::string
lowAndMedian(const std::vector<double> &v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%.0f %.6f, median %.6f", kHostPct,
                  simbench::percentileOf(v, kHostPct), simbench::median(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            wp = &w;
    if (!wp)
        usage("unknown workload " + opt.workload);
    const Workload &w = *wp;
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const unsigned jobs_n = std::min(nproc(), 4u);

    SpanLog log(opt.trace);
    std::vector<SetupTimes> setups;
    // Before each set-up, the reference kernel times the host's speed.
    simbench::ReferenceKernel ref_kernel;
    std::vector<double> ref_s;
    std::uint64_t ref_sum = 0;
    bool ref_ok = true;
    Prepared prep;
    auto set_up = [&] {
        log.setRep(0);
        prep = Prepared{}; // Free the last layout before the next.
        const double c0 = simbench::threadCpuSeconds();
        const std::uint64_t sum = ref_kernel.run();
        ref_s.push_back(simbench::threadCpuSeconds() - c0);
        ref_ok = ref_ok && (ref_s.size() == 1 || sum == ref_sum);
        ref_sum = sum;
        SetupTimes t;
        prep = prepare(w, log, t);
        setups.push_back(t);
    };
    set_up();

    // Inputs come from --seed alone: closed-loop targets are drawn
    // here, the serving arrival stream from the seed in ServeConfig.
    const graph::NodeId nodes = prep.bundle->graph.numNodes();
    std::vector<std::vector<graph::NodeId>> targets(w.batches);
    sim::Pcg32 rng(opt.seed, 0x51B3);
    for (auto &batch : targets) {
        batch.resize(w.batchSize);
        for (graph::NodeId &t : batch)
            t = rng.below(nodes);
    }
    const serve::ServeConfig scfg = serveConfig(w, opt.seed);

    // Repetitions, tagged by job count and tracing; one kind per
    // --trace 0 run, three alternating kinds per --trace 1 run.
    struct Kind
    {
        const char *label;
        unsigned jobs;
        bool traced;
        std::vector<Rep> reps;
    };
    std::vector<Kind> kinds;
    kinds.push_back({"untraced jobs 1", 1, false, {}});
    if (opt.trace) {
        kinds.push_back({"traced jobs 1", 1, true, {}});
        if (w.devices > 1 && jobs_n > 1)
            kinds.push_back({"untraced jobs N", jobs_n, false, {}});
    }
    // The first repetition's snapshot and latencies are reported.
    sim::MetricRegistry reg;
    auto run_one = [&](const Kind &k, unsigned rep) {
        sim::SimExecutor::setDefaultJobs(k.jobs);
        prep.useCounting(k.traced);
        log.setRep(rep);
        sim::MetricRegistry *keep = rep == 1 ? &reg : nullptr;
        Rep r = w.serve ? runServe(w, prep, scfg, log, keep)
                        : runOffline(w, prep, targets, log, keep);
        r.id = rep;
        if (!keep)
            r.latUs = {};
        if (!opt.trace)
            r.batchS = {};
        return r;
    };
    // One unmeasured warm-up per kind lets caches and lazy set-up settle.
    std::vector<Rep> warmups;
    unsigned rep = 1; // 0 tags the set-up spans.
    for (const Kind &k : kinds)
        warmups.push_back(run_one(k, rep++));
    // The remaining set-ups are spread evenly over the run, between
    // repetitions, so that a slow spell on a shared host moves their
    // percentile no more than it moves the repetitions'.
    for (unsigned round = 0; round < kMinReps || setups.size() < kSetups ||
                             elapsed() < opt.seconds;
         ++round) {
        while (setups.size() < kSetups &&
               elapsed() >= opt.seconds * static_cast<double>(setups.size()) /
                                kSetups)
            set_up();
        for (Kind &k : kinds)
            k.reps.push_back(run_one(k, rep++));
    }

    // Checks over every repetition, warm-ups included.
    std::uint64_t attempted = 0, failed = 0;
    std::string failure;
    const Rep &first = warmups.front();
    const std::uint64_t fp = first.fp;
    auto audit = [&](Rep &r, const char *label) {
        if (r.fp != fp)
            fail(r, std::string("metrics fingerprint differs (") + label +
                        ")");
        attempted += r.ops;
        failed += r.failed;
        if (failure.empty() && !r.failure.empty())
            failure = std::string(label) + ": " + r.failure;
    };
    for (std::size_t i = 0; i < warmups.size(); ++i)
        audit(warmups[i], kinds[i].label);
    std::size_t reps_total = 0;
    for (Kind &k : kinds) {
        for (Rep &r : k.reps)
            audit(r, k.label);
        reps_total += k.reps.size();
    }
    if (!ref_ok) {
        failed = std::max<std::uint64_t>(failed, 1);
        if (failure.empty())
            failure = "the reference kernel's checksum changed";
    }

    const double targets_run = regValue(reg, "run.targets");
    const double batches_run = regValue(reg, "run.batches");
    auto reps_of = [&](std::size_t k) {
        std::vector<const Rep *> v;
        for (const Rep &r : kinds[k].reps)
            v.push_back(&r);
        return v;
    };
    // Host seconds at the reference speed: the measured percentile times
    // how much faster than this run the reference kernel runs on a
    // quiet host.
    const double ref_p = simbench::percentileOf(ref_s, kHostPct);
    const double scale = safeDiv(kRefNominalS, ref_p);
    // Set-up layers: scaled like setup_s.
    auto setup_pct = [&](auto &&part) {
        return simbench::percentileOf(fieldOf(setups, part), kHostPct) *
               scale;
    };
    const std::vector<double> setup_cpu =
        fieldOf(setups, [](const SetupTimes &t) {
            return t.graph.cpu + t.layout.cpu + t.session.cpu;
        });
    const std::vector<double> setup_wall =
        fieldOf(setups, [](const SetupTimes &t) {
            return t.graph.wall + t.layout.wall + t.session.wall;
        });

    std::printf("simbench: %s (%s on %s, %u device%s, hash partition, R=1, "
                "seed %llu)\n",
                w.name, platforms::platformName(w.platform).c_str(), kGraph,
                w.devices, w.devices > 1 ? "s" : "",
                static_cast<unsigned long long>(opt.seed));
    if (w.serve)
        std::printf("  open loop: Poisson %.0f req/s, zipf %.2f, %llu "
                    "requests, max batch %u, timeout 200 us, %.0f MiB "
                    "mslru cache per device\n",
                    kServeRate, kServeZipf,
                    static_cast<unsigned long long>(w.requests),
                    scfg.policy.maxBatch, w.cacheMB);
    else
        std::printf("  closed loop: %u batches x %u uniform targets, each "
                    "batch starts at prepFree()\n",
                    w.batches, w.batchSize);
    std::printf("  set-ups %zu | repetitions %zu (+%zu warm-up) of %zu "
                "kind%s | jobs N = %u\n",
                setups.size(), reps_total, warmups.size(), kinds.size(),
                kinds.size() > 1 ? "s, alternating" : ", untraced jobs 1",
                jobs_n);
    std::printf("  operations %llu %s attempted, %llu failed%s%s\n",
                static_cast<unsigned long long>(attempted),
                w.serve ? "requests" : "batches",
                static_cast<unsigned long long>(failed),
                failure.empty() ? "" : " -- first failure: ",
                failure.c_str());
    std::printf("  metrics fingerprint %s (%zu instruments; %s)\n",
                simbench::hex(fp).c_str(), reg.size(),
                failed ? "NOT identical everywhere"
                       : "identical across every repetition");

    std::vector<Metric> out;
    const auto main_reps = reps_of(0);
    if (!opt.trace) {
        const std::vector<double> cpus =
            fieldOf(main_reps, [](const Rep &r) { return r.cpuS; });
        const std::vector<double> walls =
            fieldOf(main_reps, [](const Rep &r) { return r.hostS; });
        const double host = simbench::percentileOf(cpus, kHostPct) * scale;
        std::vector<double> lat = first.latUs;
        std::sort(lat.begin(), lat.end());
        const double lat50 = simbench::exactPercentile(lat, 50.0);
        const double lat99 = simbench::exactPercentile(lat, 99.0);
        out = {
            {"host_s", host, "s"},
            {"cmds_per_host_s",
             safeDiv(static_cast<double>(first.commands), host), "1/s"},
            {"setup_s", simbench::percentileOf(setup_cpu, kHostPct) * scale,
             "s"},
            {"peak_rss_mb", peakRssMB(), "MB"},
            {"sim_targets_per_s", regValue(reg, "run.throughput"), "1/s"},
            {"sim_mj_per_target",
             safeDiv(regValue(reg, "energy.total_j") * 1e3, targets_run),
             "mJ"},
            {"lat_p50_us", lat50, "us"},
            {"lat_p99_us", lat99, "us"},
        };
        std::printf("  host_s, setup_s = p%.0f of thread CPU time over %zu "
                    "repetitions, %zu set-ups, times %.4f (reference "
                    "kernel %.1f ms on a quiet host, p%.0f %.3f ms in this "
                    "run); %llu flash commands per repetition\n",
                    kHostPct, main_reps.size(), setups.size(), scale,
                    kRefNominalS * 1e3, kHostPct, ref_p * 1e3,
                    static_cast<unsigned long long>(first.commands));
        std::printf("  unscaled, s: simulate cpu %s, wall %s\n",
                    lowAndMedian(cpus).c_str(), lowAndMedian(walls).c_str());
        std::printf("  unscaled, s: set-up   cpu %s, wall %s\n",
                    lowAndMedian(setup_cpu).c_str(),
                    lowAndMedian(setup_wall).c_str());
        std::printf("  unscaled, s: ref      cpu %s\n",
                    lowAndMedian(ref_s).c_str());
        std::printf("  lat_p50_us/lat_p99_us: exact order statistics over "
                    "%zu %s\n",
                    first.latUs.size(),
                    w.serve ? "requests (done - arrival)"
                            : "batches (compute end - prep start)");
    } else {
        const auto traced = reps_of(1);
        const double host1 = medianOf(main_reps, [](const Rep &r) {
            return r.hostS;
        });
        const double host_traced = medianOf(traced, [](const Rep &r) {
            return r.hostS;
        });
        const double host_n =
            kinds.size() > 2
                ? medianOf(reps_of(2), [](const Rep &r) { return r.hostS; })
                : host1;
        const double call_s =
            medianOf(traced, [](const Rep &r) { return r.callS; });
        const double fetch_s =
            medianOf(traced, [](const Rep &r) { return r.fetchS; });
        std::vector<double> batch_ms;
        for (const Rep *r : traced)
            for (double b : r->batchS)
                batch_ms.push_back(b * 1e3);
        const double serve_batches = regValue(reg, "serve.batches");
        out = {
            {"graph.gen_s",
             setup_pct([](const SetupTimes &t) { return t.graph.cpu; }),
             "s"},
            {"directgraph.layout_s",
             setup_pct([](const SetupTimes &t) { return t.layout.cpu; }),
             "s"},
            {"directgraph.fetch_calls",
             medianOf(traced,
                      [](const Rep &r) {
                          return static_cast<double>(r.fetchCalls);
                      }),
             "count"},
            {"directgraph.fetch_s", fetch_s, "s"},
            {"directgraph.fetch_share",
             medianOf(traced,
                      [](const Rep &r) { return safeDiv(r.fetchS, r.callS); }),
             "ratio"},
            {"platforms.session_s",
             setup_pct([](const SetupTimes &t) { return t.session.cpu; }),
             "s"},
            {"platforms.batch_ms_p50", simbench::median(batch_ms), "ms"},
            {"platforms.batch_self_s",
             medianOf(traced,
                      [](const Rep &r) { return r.callS - r.fetchS; }),
             "s"},
            {"platforms.finish_s",
             medianOf(traced, [](const Rep &r) { return r.finishS; }), "s"},
            {"sim.windows", regValue(reg, "run.sim_windows"), "count"},
            {"sim.windows_per_batch",
             safeDiv(regValue(reg, "run.sim_windows"), batches_run),
             "ratio"},
            {"sim.host_jobs_n_s", host_n, "s"},
            {"sim.parallel_speedup", safeDiv(host1, host_n), "ratio"},
            {"sim.export_s",
             medianOf(traced, [](const Rep &r) { return r.exportS; }), "s"},
            {"sim.instruments", static_cast<double>(reg.size()), "count"},
            {"serve.host_us_per_batch",
             safeDiv(call_s * 1e6, serve_batches), "us"},
            {"serve.queueing_us", regValue(reg, "serve.queueing_us"), "us"},
            {"serve.prep_us", regValue(reg, "serve.prep_us"), "us"},
            {"serve.compute_us", regValue(reg, "serve.compute_us"), "us"},
            {"serve.mean_batch_size", regValue(reg, "serve.mean_batch_size"),
             "count"},
            {"serve.peak_queue_depth",
             regValue(reg, "serve.peak_queue_depth"), "count"},
            {"engine.commands", regValue(reg, "engine.commands"), "count"},
            {"engine.cmd.lifetime_us",
             regValue(reg, "engine.cmd.lifetime_us"), "us"},
            {"engine.cmd.wait_before_us",
             regValue(reg, "engine.cmd.wait_before_us"), "us"},
            {"engine.cmd.wait_after_us",
             regValue(reg, "engine.cmd.wait_after_us"), "us"},
            {"engine.cmd.flash_time_us",
             regValue(reg, "engine.cmd.flash_time_us"), "us"},
            {"engine.router.peak_queue",
             regValue(reg, "engine.router.peak_queue"), "count"},
            {"engine.aborted_commands",
             regValue(reg, "engine.aborted_commands"), "count"},
            {"engine.cross_device_frac",
             regValue(reg, "array.cross_fraction"), "ratio"},
            {"run.die_util", regValue(reg, "run.die_util"), "ratio"},
            {"run.channel_util", regValue(reg, "run.channel_util"), "ratio"},
            {"flash.reads", regValue(reg, "flash.reads"), "count"},
            {"run.core_util", regValue(reg, "run.core_util"), "ratio"},
            {"run.pcie_util", regValue(reg, "run.pcie_util"), "ratio"},
            {"run.dram_util", regValue(reg, "run.dram_util"), "ratio"},
            {"ssd.host_io.busy_ticks",
             regValue(reg, "ssd.host_io.busy_ticks"), "ticks"},
            {"ssd.firmware.core_busy",
             regValue(reg, "ssd.firmware.core_busy"), "ticks"},
            {"engine.cache.hit_rate", regValue(reg, "engine.cache.hit_rate"),
             "ratio"},
            {"engine.cache.hits", regValue(reg, "engine.cache.hits"),
             "count"},
            {"engine.cache.evictions",
             regValue(reg, "engine.cache.evictions"), "count"},
            {"accel.busy_ticks", regValue(reg, "accel.busy_ticks"), "ticks"},
            {"accel.jobs", regValue(reg, "accel.jobs"), "count"},
            {"energy.flash_j", regValue(reg, "energy.flash_j"), "J"},
            {"energy.dram_j", regValue(reg, "energy.dram_j"), "J"},
            {"energy.host_cpu_j", regValue(reg, "energy.host_cpu_j"), "J"},
            {"trace.overhead_s", host_traced - host1, "s"},
            {"trace.overhead_frac", safeDiv(host_traced - host1, host1),
             "ratio"},
        };
        std::printf("  host_s medians (wall): untraced jobs 1 %.6f s, traced "
                    "jobs 1 %.6f s",
                    host1, host_traced);
        if (kinds.size() > 2)
            std::printf(", untraced jobs %u %.6f s", jobs_n, host_n);
        std::printf("\n");
        // Self time per span name over the traced repetitions.
        std::set<unsigned> traced_ids;
        for (const Rep *r : traced)
            traced_ids.insert(r->id);
        const std::vector<double> self_s = log.selfTimes();
        std::map<std::string, std::pair<double, unsigned>> self;
        for (std::size_t i = 0; i < log.all().size(); ++i) {
            const SpanLog::Span &s = log.all()[i];
            if (!traced_ids.count(s.rep))
                continue;
            auto &e = self[s.name];
            e.first += self_s[i];
            ++e.second;
        }
        std::printf("  self time per traced span, s (total / count):\n");
        for (const auto &[name, e] : self)
            std::printf("    %-28s %10.6f / %u\n", name.c_str(), e.first,
                        e.second);
        if (!opt.traceOut.empty()) {
            std::ofstream os(opt.traceOut);
            log.writeChrome(os);
            if (!os) {
                std::cerr << "simbench: cannot write " << opt.traceOut
                          << "\n";
                failed = attempted;
            } else {
                std::printf("  spans written to %s\n", opt.traceOut.c_str());
            }
        }
    }
    for (Metric &m : out)
        if (!std::isfinite(m.value)) {
            std::cerr << "simbench: " << m.name << " is not finite\n";
            m.value = 0;
            failed = std::max<std::uint64_t>(failed, 1);
        }
    printMetrics(out);
    const bool correct = failed == 0;
    std::printf("%s\n",
                simbench::resultLine(correct, attempted, failed, out).c_str());
    return correct ? 0 : 1;
}
