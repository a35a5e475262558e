/**
 * @file
 * Quickstart: the 60-second tour of the BeaconGNN public API.
 *
 * 1. Synthesize a small graph + feature table.
 * 2. Construct a BeaconGnnSystem — this reserves flash blocks, builds
 *    the DirectGraph (Algorithm 1) and flushes it through the
 *    verified manipulation interface (§VI-A/E).
 * 3. Run a mini-batch end to end: out-of-order in-storage sampling on
 *    the BG-2 platform, then the GNN forward pass.
 * 4. Print the timing/tally statistics a practitioner would look at.
 */

#include <cstdio>

#include "core/beacongnn.h"
#include "graph/generator.h"

using namespace beacongnn;

int
main()
{
    // A small social-network-like graph: 5000 users, power-law
    // follower counts averaging 48, 64-dim FP16 profiles.
    graph::GeneratorParams gp;
    gp.nodes = 5000;
    gp.avgDegree = 48;
    gp.maxDegree = 4000;
    gp.seed = 2024;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable features(64, gp.seed);

    SystemOptions opts;
    opts.platform = platforms::PlatformKind::BG2;
    opts.model.hops = 3;
    opts.model.fanout = 3;
    opts.model.hiddenDim = 128;

    std::printf("Ingesting graph: %u nodes, %llu edges, %u-dim "
                "features...\n",
                g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()),
                features.dim());
    BeaconGnnSystem sys(std::move(g), std::move(features), opts);

    const auto &st = sys.buildStats();
    std::printf("DirectGraph: %llu primary + %llu secondary pages, "
                "%.1f%% inflation, flush took %.2f ms\n",
                static_cast<unsigned long long>(st.primaryPages),
                static_cast<unsigned long long>(st.secondaryPages),
                st.inflatePct(), sim::toMillis(sys.flushTime()));

    // One mini-batch of 8 target users.
    std::vector<graph::NodeId> targets = {1, 42, 100, 512, 1024,
                                          2048, 3000, 4999};
    MiniBatchResult r = sys.runMiniBatch(targets);

    std::printf("\nMini-batch of %zu targets:\n", targets.size());
    std::printf("  subgraph nodes     : %zu (%llu per target)\n",
                r.prep.subgraph.size(),
                static_cast<unsigned long long>(opts.model.subgraphNodes()));
    std::printf("  flash commands     : %llu\n",
                static_cast<unsigned long long>(r.prep.commands));
    std::printf("  data preparation   : %.1f us\n",
                sim::toMicros(r.prep.finish - r.prep.start));
    std::printf("  GNN computation    : %.1f us\n",
                sim::toMicros(r.computeTime));
    std::printf("  channel traffic    : %.1f KB (vs %.1f KB of raw "
                "pages)\n",
                static_cast<double>(r.prep.tally.channelBytes) /
                    1024.0,
                static_cast<double>(r.prep.tally.flashReads * 4096) /
                    1024.0);
    std::printf("  bytes over PCIe    : %llu\n",
                static_cast<unsigned long long>(r.prep.tally.pcieBytes));

    std::printf("\nFirst 8 dims of target 0's embedding: ");
    for (int i = 0; i < 8; ++i)
        std::printf("%+.3f ",
                    static_cast<double>(
                        r.embeddings[0][static_cast<std::size_t>(i)]));
    std::printf("\nDone.\n");
    return 0;
}
