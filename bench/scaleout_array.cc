/**
 * @file
 * §VIII scale-out: a computational storage array of BeaconGNN SSDs
 * with direct P2P links. The paper projects that storage capacity and
 * computation scale linearly with the number of devices while the
 * BG-2 optimizations keep working; this bench measures array
 * throughput over a device-count x partition-policy grid, prints the
 * speedup and P2P forwarding fraction per policy, and writes the full
 * grid to results/scaleout_array.csv.
 */

#include "common.h"

#include <algorithm>
#include <fstream>

using namespace bench;

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    banner("Scale-out: BeaconGNN computational storage array (#VIII)");

    const auto &b = bundle("amazon");
    RunConfig rc = defaultRun();
    rc.batchSize = 256;
    rc.batches = 3;

    const std::vector<unsigned> device_counts = {1, 2, 4, 8};
    const std::vector<platforms::PartitionPolicy> policies = {
        platforms::PartitionPolicy::Hash,
        platforms::PartitionPolicy::Range,
        platforms::PartitionPolicy::Balanced};
    const std::size_t np = policies.size();

    const platforms::PlatformConfig bg2 =
        platforms::makePlatform(PlatformKind::BG2);
    auto results = parallelMap<RunResult>(
        device_counts.size() * np, [&](std::size_t i) {
            RunConfig cell = rc;
            cell.topology.devices = device_counts[i / np];
            cell.topology.partition = policies[i % np];
            return runPlatform(bg2, cell, b);
        });

    for (std::size_t p = 0; p < np; ++p) {
        std::printf("\npartition: %s\n",
                    platforms::partitionPolicyName(policies[p]));
        std::printf("%8s %14s %10s %14s %12s\n", "devices",
                    "targets/s", "speedup", "cross-device", "p2p-frac");
        double base = results[p].throughput; // devices=1, policy p.
        for (std::size_t d = 0; d < device_counts.size(); ++d) {
            const auto &r = results[d * np + p];
            std::printf("%8u %14.0f %9.2fx %14llu %11.1f%%\n",
                        device_counts[d], r.throughput,
                        r.throughput / base,
                        static_cast<unsigned long long>(r.crossDevice),
                        100.0 * r.crossFraction);
        }
    }

    std::filesystem::create_directories("results");
    std::ofstream csv("results/scaleout_array.csv");
    csv << "devices,partition,throughput,commands,cross_device,"
           "cross_fraction,min_dev_commands,max_dev_commands\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::uint64_t lo = r.commands, hi = 0;
        for (const engines::DeviceTally &t : r.perDevice) {
            lo = std::min(lo, t.commands);
            hi = std::max(hi, t.commands);
        }
        csv << device_counts[i / np] << ','
            << platforms::partitionPolicyName(policies[i % np]) << ','
            << r.throughput << ',' << r.commands << ','
            << r.crossDevice << ',' << r.crossFraction << ',' << lo
            << ',' << hi << '\n';
    }
    std::printf("\nwrote %zu grid row(s) to "
                "results/scaleout_array.csv\n",
                results.size());

    std::printf("\nPaper projection: capacity and compute scale "
                "linearly with devices; the\nP2P command descriptors "
                "are small, so forwarding does not erode the gain.\n");
    return 0;
}
