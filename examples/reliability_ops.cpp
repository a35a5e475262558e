/**
 * @file
 * Operating a BeaconGNN SSD over its lifetime (§VI-E/F): retention
 * errors caught by on-die checks, repaired by idle-time scrubbing;
 * wear imbalance against pinned DirectGraph blocks resolved by
 * reclamation (migration + embedded-address rewrite); and the
 * security property that DirectGraph manipulation cannot touch
 * regular storage.
 */

#include <cstdio>
#include <unordered_set>

#include "core/beacongnn.h"
#include "directgraph/verify.h"
#include "graph/generator.h"

using namespace beacongnn;

int
main()
{
    graph::GeneratorParams gp;
    gp.nodes = 3000;
    gp.avgDegree = 40;
    gp.seed = 11;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable features(32, gp.seed);

    SystemOptions opts;
    opts.model.hops = 2;
    BeaconGnnSystem sys(g, features, opts);
    std::printf("Deployed: %zu DirectGraph pages in %zu reserved "
                "blocks.\n\n",
                sys.layout().directory.pageCount(), sys.layout().blocks.size());

    // --- 1. Retention error -> on-die abort -> scrub repair --------
    std::printf("[1] Injecting a retention bit flip into node 7's "
                "primary section header...\n");
    dg::DgAddress a = sys.layout().primaryOf(7);
    sys.corruptBit(a.page(), sys.layout().directory.find(a)->byteOffset, 6);

    std::vector<graph::NodeId> targets = {7};
    auto bad = sys.runMiniBatch(targets);
    std::printf("    mini-batch on node 7: %s (%llu on-die aborts, "
                "control returned to firmware)\n",
                bad.prep.ok ? "ok" : "ABORTED",
                static_cast<unsigned long long>(
                    bad.prep.tally.abortedCommands));

    ssd::ScrubReport rep = sys.scrub();
    std::printf("    scrub: %llu pages checked, %llu errors, %llu "
                "blocks re-programmed\n",
                static_cast<unsigned long long>(rep.pagesChecked),
                static_cast<unsigned long long>(rep.errorsFound),
                static_cast<unsigned long long>(rep.blocksReprogrammed));
    auto good = sys.runMiniBatch(targets);
    std::printf("    retry: %s, %zu subgraph nodes\n\n",
                good.prep.ok ? "ok" : "still broken",
                good.prep.subgraph.size());

    // --- 2. Wear imbalance -> reclamation ---------------------------
    std::printf("[2] Simulating heavy regular-I/O wear on non-pinned "
                "blocks...\n");
    auto &ftl = sys.firmware().ftl();
    auto &store = sys.pageStore();
    std::unordered_set<flash::BlockId> worn;
    for (ssd::Lpa l = 0; l < 128; ++l) {
        auto p = ftl.translate(l, true);
        if (p)
            worn.insert(store.addressCodec().blockOf(*p));
    }
    for (auto b : worn)
        for (int i = 0; i < 200; ++i)
            store.eraseBlock(b);
    std::printf("    P/E gap (regular - DirectGraph blocks): %.0f "
                "cycles\n",
                ftl.peGap(store));
    bool migrated = sys.reclaimIfNeeded(64.0);
    std::printf("    reclamation: %s\n",
                migrated ? "DirectGraph migrated to fresh blocks, "
                           "embedded addresses rewritten, old blocks "
                           "rejoin the FTL"
                         : "not needed");
    auto after = sys.runMiniBatch(targets);
    std::printf("    post-migration mini-batch: %s\n\n",
                after.prep.ok ? "ok" : "broken");

    // --- 3. Isolation check -----------------------------------------
    std::printf("[3] Security: a page image embedding an address "
                "outside the reserved\n    blocks is rejected at flush "
                "time...\n");
    dg::AddressVerifier verifier(
        sys.layout().blocks,
        sys.firmware().config().flash.pagesPerBlock);
    std::vector<std::uint8_t> evil(
        sys.firmware().config().flash.pageSize, 0);
    std::vector<dg::DgAddress> outside = {
        dg::DgAddress(static_cast<flash::Ppa>(
                          sys.firmware().config().flash.totalPages() - 1),
                      0)};
    dg::encodeSecondary(evil, 1, outside);
    bool safe = verifier.pageImageSafe(sys.layout().primaryOf(0).page(),
                                       evil, features.dim());
    std::printf("    verifier verdict: %s\n",
                safe ? "ACCEPTED (BUG!)" : "rejected, as required");
    return 0;
}
