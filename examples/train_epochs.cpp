/**
 * @file
 * End-to-end GNN training on a BeaconGNN SSD (the paper's actual
 * evaluation scenario, §VII-A): every mini-batch is sampled in
 * storage (out-of-order streaming, BG-2) and the returned subgraph
 * drives a real SGD step through the message-passing network. Prints
 * the loss curve alongside the device-side timing.
 */

#include <cstdio>

#include "core/beacongnn.h"
#include "gnn/training.h"
#include "graph/generator.h"

using namespace beacongnn;

int
main()
{
    graph::GeneratorParams gp;
    gp.nodes = 8000;
    gp.avgDegree = 32;
    gp.maxDegree = 4000;
    gp.seed = 77;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable features(32, gp.seed);

    SystemOptions opts;
    opts.platform = platforms::PlatformKind::BG2;
    opts.model.hops = 2;
    opts.model.fanout = 4;
    opts.model.featureDim = 32;
    opts.model.hiddenDim = 32;
    BeaconGnnSystem ssd(g, features, opts);
    gnn::TrainState state = gnn::TrainState::init(ssd.model());

    std::printf("Training a %u-hop GraphSage model on a %u-node graph "
                "stored as DirectGraph\n(%zu flash pages). 12 epochs x "
                "8 mini-batches of 64 targets, SGD lr=0.3.\n\n",
                ssd.model().hops, g.numNodes(),
                ssd.layout().directory.pageCount());
    std::printf("%6s %12s %12s %14s %14s\n", "epoch", "loss",
                "grad-norm", "prep us/batch", "train MMACs");

    sim::Pcg32 rng(5);
    for (int epoch = 0; epoch < 12; ++epoch) {
        double loss_sum = 0, gnorm = 0;
        sim::Tick prep_time = 0;
        std::uint64_t macs = 0;
        for (int b = 0; b < 8; ++b) {
            std::vector<graph::NodeId> targets(64);
            for (auto &t : targets)
                t = rng.below(g.numNodes());
            // Data preparation runs in storage...
            MiniBatchResult r = ssd.runMiniBatch(targets);
            prep_time += r.prep.finish - r.prep.start;
            // ...and the sampled subgraph drives the SGD step.
            gnn::StepResult sr = gnn::trainStep(
                r.prep.subgraph, features, ssd.model(), state, 0.3f);
            loss_sum += sr.loss;
            gnorm += sr.gradNorm;
            macs += sr.macsForward + sr.macsBackward;
        }
        std::printf("%6d %12.6f %12.4f %14.1f %14.1f\n", epoch,
                    loss_sum / 8, gnorm / 8,
                    sim::toMicros(prep_time) / 8,
                    static_cast<double>(macs) / 1e6);
    }
    std::printf("\nThe loss falls while every sampled node, feature "
                "vector and page read came\nthrough the simulated "
                "flash backend.\n");
    return 0;
}
