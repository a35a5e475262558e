/**
 * @file
 * Component microbenchmarks (google-benchmark): event-queue
 * throughput, DirectGraph construction, section decode, layout-source
 * fetch, die-sampler execution, systolic estimation and end-to-end
 * mini-batch prep.
 * These guard against performance regressions of the simulator
 * itself (not of the modelled system).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>

#include "directgraph/builder.h"
#include "directgraph/source.h"
#include "engines/die_sampler.h"
#include "graph/generator.h"
#include "platforms/runner.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

using namespace beacongnn;

namespace {

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t fired = 0;
        for (int i = 0; i < 10000; ++i)
            q.schedule(static_cast<sim::Tick>((i * 37) % 1000),
                       [&fired] { ++fired; });
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueue);

/**
 * Replica of the pre-InlineCallback event kernel (std::function
 * callbacks in a std::priority_queue, full Event copy on every pop)
 * so BM_EventKernel* measures the SBO + move-out win on the same
 * machine and workload.
 */
class StdFunctionEventQueue
{
  public:
    void
    schedule(sim::Tick delay, std::function<void()> fn)
    {
        events.push(Event{now + delay, seq++, std::move(fn)});
    }

    void
    run()
    {
        while (!events.empty()) {
            Event ev = events.top();
            events.pop();
            now = ev.when;
            ev.fn();
        }
    }

  private:
    struct Event
    {
        sim::Tick when;
        std::uint64_t order;
        std::function<void()> fn;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };
    std::priority_queue<Event, std::vector<Event>, Later> events;
    sim::Tick now = 0;
    std::uint64_t seq = 0;
};

/**
 * The realistic event capture: a component pointer plus a few words
 * of payload (32 bytes). Too big for libstdc++'s 16-byte
 * std::function buffer (heap per schedule), comfortably inside
 * InlineCallback's 64 bytes (no heap).
 */
template <typename Queue>
void
eventKernelWorkload(Queue &q, std::uint64_t *acc)
{
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t a = static_cast<std::uint64_t>(i);
        std::uint64_t b = a * 3;
        std::uint64_t c = a ^ 0xBEAC0;
        q.schedule(static_cast<sim::Tick>((i * 37) % 1000),
                   [acc, a, b, c] { *acc += a + b + c; });
    }
    q.run();
}

void
BM_EventKernelStdFunction(benchmark::State &state)
{
    for (auto _ : state) {
        StdFunctionEventQueue q;
        std::uint64_t acc = 0;
        eventKernelWorkload(q, &acc);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventKernelStdFunction);

void
BM_EventKernelInlineCallback(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t acc = 0;
        eventKernelWorkload(q, &acc);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventKernelInlineCallback);

/**
 * Event loop in the instrumentation pattern the simulator uses:
 * references resolved from the registry once per session (outside the
 * hot path), plain add() calls inside event callbacks. The raw-uint64
 * variant is the pre-MetricRegistry baseline; checkRegistryOverhead()
 * in main() asserts the delta stays under 5%.
 */
std::uint64_t
eventLoopRegistryOff()
{
    sim::EventQueue q;
    std::uint64_t fired = 0, ticks = 0;
    for (int i = 0; i < 10000; ++i) {
        sim::Tick d = static_cast<sim::Tick>((i * 37) % 1000);
        q.schedule(d, [&fired, &ticks, d] {
            ++fired;
            ticks += d;
        });
    }
    q.run();
    return fired + ticks;
}

std::uint64_t
eventLoopRegistryOn(sim::MetricRegistry &reg)
{
    sim::EventQueue q;
    // Synthetic probes of the overhead microbenchmark, not real
    // instruments — deliberately outside the §10 namespace so they
    // can never collide with a component name.
    sim::Counter &fired =
        reg.counter("bench.events_fired"); // bgnlint:allow(BGN004)
    sim::Counter &ticks =
        reg.counter("bench.event_ticks"); // bgnlint:allow(BGN004)
    for (int i = 0; i < 10000; ++i) {
        sim::Tick d = static_cast<sim::Tick>((i * 37) % 1000);
        q.schedule(d, [&fired, &ticks, d] {
            fired.add(1);
            ticks.add(d);
        });
    }
    q.run();
    return fired.value() + ticks.value();
}

void
BM_EventLoopRegistryOff(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(eventLoopRegistryOff());
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoopRegistryOff);

void
BM_EventLoopRegistryOn(benchmark::State &state)
{
    for (auto _ : state) {
        sim::MetricRegistry reg;
        benchmark::DoNotOptimize(eventLoopRegistryOn(reg));
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoopRegistryOn);

graph::Graph &
benchGraph()
{
    static graph::Graph g = [] {
        graph::GeneratorParams p;
        p.nodes = 20000;
        p.avgDegree = 64;
        p.maxDegree = 20000;
        return graph::generatePowerLaw(p);
    }();
    return g;
}

/** benchGraph()'s layout on the default flash geometry. */
const dg::DirectGraphLayout &
benchLayout()
{
    static const dg::DirectGraphLayout layout = [] {
        flash::FlashConfig cfg;
        graph::FeatureTable feat(128, 1);
        ssd::Ftl ftl(cfg);
        return dg::buildLayout(benchGraph(), feat, cfg,
                               ftl.reserveBlocks(512));
    }();
    return layout;
}

void
BM_DirectGraphBuild(benchmark::State &state)
{
    flash::FlashConfig cfg;
    graph::FeatureTable feat(128, 1);
    ssd::Ftl ftl(cfg);
    auto blocks = ftl.reserveBlocks(512);
    for (auto _ : state) {
        auto layout = dg::buildLayout(benchGraph(), feat, cfg, blocks);
        benchmark::DoNotOptimize(layout.directory.pageCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            benchGraph().numNodes());
}
BENCHMARK(BM_DirectGraphBuild);

void
BM_SectionDecode(benchmark::State &state)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<dg::SecondaryRef> secs = {{dg::DgAddress(9, 1), 500}};
    std::vector<std::uint8_t> feat(256, 7);
    std::vector<dg::DgAddress> nbrs;
    for (std::uint32_t i = 0; i < 500; ++i)
        nbrs.emplace_back(i, i % 16);
    dg::encodePrimary(page, 1, 1000, secs, feat, nbrs);
    for (auto _ : state) {
        auto sec = dg::decodeSection(page, 0, 128);
        benchmark::DoNotOptimize(sec->neighbors.size());
    }
}
BENCHMARK(BM_SectionDecode);

/** One LayoutSource::fetch over the primary and secondary sections of
 *  benchGraph()'s 64 highest-degree nodes — the sections with the
 *  longest neighbour lists. */
void
BM_LayoutSourceFetch(benchmark::State &state)
{
    const graph::Graph &g = benchGraph();
    const dg::DirectGraphLayout &layout = benchLayout();
    dg::LayoutSource src(layout, g);
    std::vector<graph::NodeId> hubs(g.numNodes());
    for (graph::NodeId v = 0; v < g.numNodes(); ++v)
        hubs[v] = v;
    std::stable_sort(hubs.begin(), hubs.end(),
                     [&](graph::NodeId a, graph::NodeId b) {
                         return g.degree(a) > g.degree(b);
                     });
    hubs.resize(64);
    std::vector<dg::DgAddress> addrs;
    for (graph::NodeId v : hubs) {
        addrs.push_back(layout.nodes[v].primary);
        for (const dg::SecondaryRef &r : layout.nodes[v].secondaries)
            addrs.push_back(r.addr);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        auto s = src.fetch(addrs[i++ % addrs.size()]);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LayoutSourceFetch);

void
BM_DieSampler(benchmark::State &state)
{
    const dg::DirectGraphLayout &layout = benchLayout();
    dg::LayoutSource src(layout, benchGraph());
    ssd::EngineConfig ecfg;
    flash::GnnGlobalConfig gcfg;
    engines::DieSampler sampler(ecfg, gcfg);
    flash::GnnSampleResult r;
    std::uint64_t node = 0;
    for (auto _ : state) {
        flash::GnnSampleParams p;
        dg::DgAddress a = layout.primaryOf(
            static_cast<graph::NodeId>(node++ % 20000));
        p.ppa = a.page();
        p.sectionIndex = static_cast<std::uint8_t>(a.section());
        p.sampleCount = 3;
        p.retrieveFeature = true;
        sampler.execute(src.fetch(a), p, r);
        benchmark::DoNotOptimize(r.follow.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DieSampler);

void
BM_SystolicEstimate(benchmark::State &state)
{
    accel::SystolicConfig cfg;
    for (auto _ : state) {
        auto e = accel::estimateGemm(cfg, gnn::GemmShape{5120, 128, 602});
        benchmark::DoNotOptimize(e.cycles);
    }
}
BENCHMARK(BM_SystolicEstimate);

void
BM_MiniBatchPrepBg2(benchmark::State &state)
{
    gnn::ModelConfig model;
    model.hops = 3;
    model.fanout = 3;
    ssd::SystemConfig sys;
    auto spec = graph::workload("amazon");
    spec.simNodes = 10000;
    static auto bundle_ptr =
        platforms::makeBundle(spec, sys.flash, model);
    const platforms::WorkloadBundle &bundle = *bundle_ptr;
    platforms::RunConfig rc;
    rc.batchSize = 64;
    rc.batches = 1;
    auto p = platforms::makePlatform(platforms::PlatformKind::BG2);
    for (auto _ : state) {
        auto r = platforms::runPlatform(p, rc, bundle);
        benchmark::DoNotOptimize(r.totalTime);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MiniBatchPrepBg2);

/**
 * Direct timing check backing the <5% instrumentation budget: min of
 * @p reps wall-clock runs per variant (min-of-k discards scheduler
 * noise; both variants suffer it equally). Nonzero overhead here is
 * counter indirection only — name lookup happens once per session.
 */
bool
checkRegistryOverhead()
{
    constexpr int kReps = 15, kRunsPerRep = 10;
    constexpr double kBudget = 0.05;
    using clock = std::chrono::steady_clock;
    auto timeMin = [&](auto &&body) {
        double best = 1e300;
        for (int r = 0; r < kReps; ++r) {
            auto t0 = clock::now();
            for (int i = 0; i < kRunsPerRep; ++i)
                body();
            best = std::min(
                best, std::chrono::duration<double>(clock::now() - t0)
                          .count());
        }
        return best;
    };
    // Warm both paths (page-in, branch predictors) before timing.
    std::uint64_t sink = eventLoopRegistryOff();
    {
        sim::MetricRegistry reg;
        sink += eventLoopRegistryOn(reg);
    }
    benchmark::DoNotOptimize(sink);

    double off = timeMin([] {
        benchmark::DoNotOptimize(eventLoopRegistryOff());
    });
    double on = timeMin([] {
        sim::MetricRegistry reg;
        benchmark::DoNotOptimize(eventLoopRegistryOn(reg));
    });
    double overhead = on / off - 1.0;
    std::printf("registry overhead: %+.2f%% (off %.3f ms, on %.3f ms, "
                "min of %d; budget %.0f%%)\n",
                100.0 * overhead, 1e3 * off, 1e3 * on, kReps,
                100.0 * kBudget);
    if (overhead > kBudget) {
        std::fprintf(stderr,
                     "FAIL: metric-registry overhead %.2f%% exceeds "
                     "the %.0f%% budget\n",
                     100.0 * overhead, 100.0 * kBudget);
        return false;
    }
    return true;
}

/** The BM_EventQueue workload, optionally with a validator armed.
 *  The validator is constructed either way (it is per-run state —
 *  pop monotonicity would trip across queue lifetimes otherwise), so
 *  the two variants differ only in the attachment. */
std::uint64_t
eventLoopValidator(bool armed)
{
    sim::Validator v(1, 0);
    sim::EventQueue q;
    if (armed)
        q.setValidator(&v, 0);
    std::uint64_t fired = 0, ticks = 0;
    for (int i = 0; i < 10000; ++i) {
        sim::Tick d = static_cast<sim::Tick>((i * 37) % 1000);
        q.schedule(d, [&fired, &ticks, d] {
            ++fired;
            ticks += d;
        });
    }
    q.run();
    return fired * 1000003u + ticks;
}

/**
 * Checked-build cost contract (DESIGN.md §16): with BGN_CHECKED=OFF
 * the validator hooks are compiled out, so attaching a validator to
 * an event queue must be byte-neutral (identical loop result) and
 * timing-neutral (same <5% budget discipline as the registry check).
 * A checked build reports the measured hook overhead but never
 * fails — paying for the assertions is that build's purpose.
 */
bool
checkValidatorOverhead()
{
    constexpr int kReps = 15, kRunsPerRep = 10;
    constexpr double kBudget = 0.05;
    using clock = std::chrono::steady_clock;
    auto timeMin = [&](auto &&body) {
        double best = 1e300;
        for (int r = 0; r < kReps; ++r) {
            auto t0 = clock::now();
            for (int i = 0; i < kRunsPerRep; ++i)
                body();
            best = std::min(
                best, std::chrono::duration<double>(clock::now() - t0)
                          .count());
        }
        return best;
    };
    std::uint64_t plain = eventLoopValidator(false);
    std::uint64_t armed = eventLoopValidator(true);
    if (plain != armed) {
        std::fprintf(stderr,
                     "FAIL: validator attachment changed the event "
                     "loop result (%llu vs %llu)\n",
                     static_cast<unsigned long long>(plain),
                     static_cast<unsigned long long>(armed));
        return false;
    }
    double off = timeMin([] {
        benchmark::DoNotOptimize(eventLoopValidator(false));
    });
    double on = timeMin([] {
        benchmark::DoNotOptimize(eventLoopValidator(true));
    });
    double overhead = on / off - 1.0;
    std::printf("validator overhead (%s build): %+.2f%% (plain %.3f "
                "ms, armed %.3f ms, min of %d)\n",
                sim::kCheckedBuild ? "BGN_CHECKED" : "off",
                100.0 * overhead, 1e3 * off, 1e3 * on, kReps);
    if (!sim::kCheckedBuild && overhead > kBudget) {
        std::fprintf(stderr,
                     "FAIL: compiled-out validator hooks cost %.2f%% "
                     "— an OFF build must be timing-neutral "
                     "(budget %.0f%%)\n",
                     100.0 * overhead, 100.0 * kBudget);
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bool registryOk = checkRegistryOverhead();
    bool validatorOk = checkValidatorOverhead();
    return (registryOk && validatorOk) ? 0 : 1;
}
