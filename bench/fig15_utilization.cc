/**
 * @file
 * Figure 15(a-e): active flash channels and dies over time for BG-SP,
 * BG-DGSP and BG-2 on each workload — BG-SP shows utilization valleys
 * at the hop barriers, BG-DGSP fills them, BG-2 lifts utilization
 * (+76% in the paper) and cuts total sampling latency (-78%).
 *
 * Figure 15(f): overall latency/resource breakdown on amazon —
 * PCIe-dominated CC, flash-dominated BG-1, shrinking flash I/O down
 * the BG ladder.
 */

#include "common.h"

using namespace bench;

namespace {

void
series(const char *label, const std::vector<double> &values, double cap)
{
    std::printf("%-8s", label);
    for (double v : values) {
        int level = cap > 0 ? static_cast<int>(9.99 * v / cap) : 0;
        std::putchar(level <= 0 ? '.' : static_cast<char>('0' + std::min(
                                                                    9,
                                                                    level)));
    }
    std::printf("  (peak %.0f of %.0f)\n",
                *std::max_element(values.begin(), values.end()), cap);
}

void
utilizationOverTime()
{
    banner("Figure 15a-e: active channels/dies over time "
           "(one row per platform; 0-9 deciles of peak capacity)");
    RunConfig rc = defaultRun();
    rc.batches = 2;
    rc.traceUtilization = true;
    rc.utilizationBuckets = 64;
    ssd::SystemConfig sys;
    double die_cap = sys.flash.channels * sys.flash.diesPerChannel;
    double ch_cap = sys.flash.channels;

    const std::vector<PlatformKind> kinds = {
        PlatformKind::BG_SP, PlatformKind::BG_DGSP, PlatformKind::BG2};
    const std::size_t nw = workloadNames().size();
    auto results = runGrid(kinds, workloadNames(), rc);

    for (std::size_t wi = 0; wi < nw; ++wi) {
        const auto &w = workloadNames()[wi];
        std::printf("\n[%s]\n", w.c_str());
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            auto p = platforms::makePlatform(kinds[k]);
            const RunResult &r = results[k * nw + wi];
            std::printf("%-8s dies    ", p.name.c_str());
            series("", r.dieSeries, die_cap);
            std::printf("%-8s channels", p.name.c_str());
            series("", r.channelSeries, ch_cap);
            std::printf("%-8s  avg die util %.3f, avg ch util %.3f, "
                        "prep %.2f ms\n",
                        "", r.dieUtil, r.channelUtil,
                        sim::toMillis(r.prepTime));
        }
    }
    std::printf("\nPaper: BG-SP shows low-utilization valleys at hop "
                "barriers; BG-DGSP is\nconsistently higher; BG-2 raises "
                "utilization (+76%%) and cuts sampling\nlatency (-78%%). "
                "reddit/PPI stay channel-transfer-bound (high feature "
                "dims),\nmovielens/OGBN die-read-bound (short "
                "features); amazon exercises both.\n");
}

void
latencyBreakdown()
{
    banner("Figure 15f: resource-time breakdown, amazon "
           "(busy ms over the run)");
    RunConfig rc = defaultRun();
    std::printf("%-10s %9s %9s %9s %9s %9s %9s %9s\n", "platform",
                "total", "pcie", "flashdie", "channel", "fw-cores",
                "host", "accel");
    const auto &kinds = platforms::allPlatforms();
    auto results = runGrid(kinds, {"amazon"}, rc);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        auto p = platforms::makePlatform(kinds[k]);
        const RunResult &r = results[k];
        ssd::SystemConfig sys = rc.system;
        double total = sim::toMillis(r.totalTime);
        std::printf("%-10s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
                    p.name.c_str(), total,
                    r.pcieUtil * total,
                    r.dieUtil * total * sys.flash.totalDies() /
                        sys.flash.totalDies(),
                    r.channelUtil * total,
                    r.coreUtil * total,
                    sim::toMillis(r.tally.hostCpuBusy),
                    sim::toMillis(r.accelBusy));
    }
    std::printf("Paper: CC is dominated by PCIe transfer; BG-1 by "
                "flash page transfer;\nfrom BG-SP to BG-2 the flash I/O "
                "share keeps shrinking; host-side delay\nis minor "
                "everywhere.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    utilizationOverTime();
    latencyBreakdown();
    return 0;
}
