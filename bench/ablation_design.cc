/**
 * @file
 * Ablations of BeaconGNN's design choices (DESIGN.md §5) — the
 * studies the paper motivates but does not run:
 *
 *  1. Secondary-command coalescing (§V-A "all commands for the same
 *     secondary section will coalesce"): on vs off, on a
 *     high-spill workload.
 *  2. DirectGraph block striping: spreading pages across one block
 *     per die vs sequential block fill (parallelism vs locality).
 *  3. Best-fit page packing pool size: inflation vs packing effort.
 *  4. Accelerator dataflow and array geometry for the paper's GEMM
 *     shapes (weight- vs output-stationary, 16..128 PEs).
 *  5. Batch-level node deduplication (extension): repeated subgraph
 *     nodes served from SSD DRAM instead of re-read from flash.
 *  6. Direct flash->accelerator-SRAM I/O (§VIII): bypassing the SSD
 *     DRAM lifts the Fig. 18d scaling wall at high channel counts.
 */

#include "common.h"

#include <set>

#include "accel/systolic.h"
#include "platforms/device_context.h"

using namespace bench;

namespace {

void
coalescingAblation()
{
    banner("Ablation 1: secondary-command coalescing "
           "(hub-heavy graph, fanout 16)");
    // Coalescing matters when many draws land in the same secondary
    // section: a hub-heavy graph sampled with a wide fanout.
    gnn::ModelConfig model = defaultModel();
    model.fanout = 16;
    ssd::SystemConfig sys;
    auto spec = graph::workload("reddit");
    spec.simNodes = 8000;
    spec.avgDegree = 2500; // Deep secondary spill.
    auto bptr = platforms::makeBundle(spec, sys.flash, model);
    RunConfig rc = defaultRun();
    rc.batches = 2;
    rc.batchSize = 32;

    for (bool coalesce : {true, false}) {
        auto p = platforms::makePlatform(PlatformKind::BG2);
        p.flags.coalesceSecondary = coalesce;
        RunResult r = runPlatform(p, rc, *bptr);
        std::printf("%-14s flash reads %8llu  channel %7.1f KB  "
                    "prep %7.2f ms  thr %9.0f t/s\n",
                    coalesce ? "coalesced" : "per-hit",
                    static_cast<unsigned long long>(
                        r.tally.flashReads),
                    static_cast<double>(r.tally.channelBytes) /
                        1024.0,
                    sim::toMillis(r.prepTime), r.throughput);
    }
    std::printf("Coalescing removes redundant secondary-page reads "
                "without changing the\nsampled subgraph (the draws are "
                "keyed by index; verified in tests).\n\n");
}

void
stripingAblation()
{
    banner("Ablation 2: DirectGraph block striping (amazon)");
    gnn::ModelConfig model = defaultModel();
    ssd::SystemConfig sys;
    auto spec = graph::workload("amazon");
    spec.simNodes = 8000;
    RunConfig rc = defaultRun();
    rc.batches = 2;

    for (unsigned stripe : {1u, 8u, 32u, 0u}) {
        // Rebuild the layout with the requested stripe width.
        auto g = spec.makeGraph();
        auto feat = spec.makeFeatures();
        ssd::Ftl ftl(sys.flash);
        std::uint64_t raw =
            g.numEdges() * 4 +
            std::uint64_t{g.numNodes()} * feat.bytesPerNode();
        std::uint64_t block_bytes =
            std::uint64_t{sys.flash.pagesPerBlock} * sys.flash.pageSize;
        auto blocks = ftl.reserveBlocks(std::max<std::uint64_t>(
            (raw * 3) / block_bytes + 16, sys.flash.totalDies() + 64));
        dg::BuilderOptions opts;
        opts.stripeWidth = stripe;
        auto layout = dg::buildLayout(g, feat, sys.flash, blocks, opts);
        dg::LayoutSource src(layout, g);

        // Count distinct dies the layout touches.
        std::set<unsigned> dies;
        flash::AddressCodec codec(sys.flash);
        layout.directory.forEachPage(
            [&](flash::Ppa ppa, std::span<const dg::SectionPlacement>) {
                dies.insert(codec.globalDieOf(ppa));
            });

        // Time BG-2 on this layout.
        auto p = platforms::makePlatform(PlatformKind::BG2);
        gnn::ModelConfig m = model;
        m.featureDim = feat.dim();
        platforms::DeviceContext dev(p, rc.system, {}, m, layout.blocks,
                                     0, false);
        engines::GnnEngine engine({dev.port()}, layout, g, m, p.flags,
                                  src);
        std::vector<graph::NodeId> targets(rc.batchSize);
        sim::Pcg32 rng(1);
        for (auto &t : targets)
            t = rng.below(g.numNodes());
        engines::PrepResult pr = engine.run(0, 0, targets);

        std::printf("stripe %-9s dies touched %4zu / %u   prep "
                    "%8.2f ms\n",
                    stripe == 0 ? "(per-die)"
                                : std::to_string(stripe).c_str(),
                    dies.size(), sys.flash.totalDies(),
                    sim::toMillis(pr.finish - pr.start));
    }
    std::printf("Sequential block fill (stripe 1) concentrates a "
                "scaled graph on few dies\nand forfeits backend "
                "parallelism; striping one block per die restores "
                "it.\n\n");
}

void
packingAblation()
{
    banner("Ablation 3: best-fit open-page pool size (amazon "
           "inflation)");
    ssd::SystemConfig sys;
    auto spec = graph::workload("amazon");
    spec.simNodes = 8000;
    auto g = spec.makeGraph();
    auto feat = spec.makeFeatures();
    ssd::Ftl ftl(sys.flash);
    std::uint64_t raw = g.numEdges() * 4 +
                        std::uint64_t{g.numNodes()} * feat.bytesPerNode();
    std::uint64_t block_bytes =
        std::uint64_t{sys.flash.pagesPerBlock} * sys.flash.pageSize;
    auto blocks = ftl.reserveBlocks(std::max<std::uint64_t>(
        (raw * 3) / block_bytes + 16, sys.flash.totalDies() + 64));

    std::printf("%10s %12s %12s\n", "pool", "pages", "inflation");
    for (unsigned pool : {1u, 4u, 16u, 64u, 128u}) {
        dg::BuilderOptions opts;
        opts.openPagePool = pool;
        auto layout = dg::buildLayout(g, feat, sys.flash, blocks, opts);
        std::printf("%10u %12zu %11.1f%%\n", pool,
                    layout.directory.pageCount(), layout.stats.inflatePct());
    }
    std::printf("A deeper best-fit pool packs mixed-size sections "
                "tighter (the paper's\n\"linked array\" compaction); "
                "returns diminish quickly.\n\n");
}

void
acceleratorAblation()
{
    banner("Ablation 4: accelerator dataflow / geometry "
           "(batch-256 layer-1 GEMM, amazon dims)");
    // Layer 1 of the paper's model on amazon: M = 256 targets x 13
    // nodes, K = 200-dim features, N = 128 hidden.
    gnn::GemmShape g{256 * 13, 128, 200};
    std::printf("%8s %6s %14s %14s %12s\n", "array", "flow",
                "cycles", "util", "sram KB");
    for (std::uint32_t dim : {16u, 32u, 64u, 128u}) {
        for (auto flow : {accel::Dataflow::WeightStationary,
                          accel::Dataflow::OutputStationary}) {
            accel::SystolicConfig cfg;
            cfg.rows = cfg.cols = dim;
            cfg.dataflow = flow;
            auto e = accel::estimateGemm(cfg, g);
            std::printf("%5ux%-3u %6s %14llu %13.1f%% %12.1f\n", dim,
                        dim,
                        flow == accel::Dataflow::WeightStationary
                            ? "WS"
                            : "OS",
                        static_cast<unsigned long long>(e.cycles),
                        100.0 * e.utilization(cfg),
                        static_cast<double>(e.sramReadBytes +
                                            e.sramWriteBytes) /
                            1024.0);
        }
    }
    std::printf("The 32x32 WS point (Table II's SSD budget) balances "
                "utilization against\nSRAM traffic. WS wins on these "
                "tall (M-dominated) GNN GEMMs because the\nweights "
                "load once per tile while rows stream; OS would win "
                "on K-dominated\nshapes where partial sums stay "
                "resident.\n");
}

void
dedupAblation()
{
    banner("Ablation 5: batch-level node deduplication (extension)");
    // Small graphs make repeated nodes within one batch frequent.
    gnn::ModelConfig model = defaultModel();
    ssd::SystemConfig sys;
    std::printf("%12s %6s %14s %14s %12s\n", "graph-nodes", "dedup",
                "flash reads", "prep ms", "thr t/s");
    for (graph::NodeId nodes : {2000u, 20000u}) {
        auto spec = graph::workload("amazon");
        spec.simNodes = nodes;
        auto b = platforms::makeBundle(spec, sys.flash, model);
        RunConfig rc = defaultRun();
        rc.batchSize = 256;
        rc.batches = 2;
        for (bool dedup : {false, true}) {
            auto p = platforms::makePlatform(PlatformKind::BG2);
            p.flags.dedupeNodes = dedup;
            RunResult r = runPlatform(p, rc, *b);
            std::printf("%12u %6s %14llu %14.2f %12.0f\n", nodes,
                        dedup ? "on" : "off",
                        static_cast<unsigned long long>(
                            r.tally.flashReads),
                        sim::toMillis(r.prepTime), r.throughput);
        }
    }
    std::printf("Deduplication pays off when mini-batches revisit "
                "nodes (small graphs, hot\nhubs); the sampled subgraph "
                "is unchanged (tests verify instance-level\n"
                "equality).\n");
}

void
dramBypassAblation()
{
    banner("Ablation 6: direct flash->accelerator SRAM path (#VIII)");
    std::printf("%10s %8s %14s %12s\n", "channels", "bypass",
                "thr t/s", "dram util");
    for (unsigned channels : {16u, 32u}) {
        for (bool bypass : {false, true}) {
            RunConfig rc = defaultRun();
            rc.batches = 2;
            rc.system.flash.channels = channels;
            const auto &b = bundle("amazon", rc.system.flash);
            auto p = platforms::makePlatform(PlatformKind::BG2);
            p.flags.bypassDram = bypass;
            RunResult r = runPlatform(p, rc, b);
            std::printf("%10u %8s %14.0f %12.2f\n", channels,
                        bypass ? "on" : "off", r.throughput,
                        r.dramUtil);
        }
    }
    std::printf("The paper's proposed fix for its own DRAM-bandwidth "
                "limitation: once the\nbackend outgrows the DRAM port, "
                "streaming features straight into the\naccelerator "
                "SRAM recovers the scaling.\n");
}

} // namespace

int
main()
{
    coalescingAblation();
    stripingAblation();
    packingAblation();
    acceleratorAblation();
    dedupAblation();
    dramBypassAblation();
    return 0;
}
