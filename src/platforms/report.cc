#include "platforms/report.h"

#include <iomanip>
#include <sstream>

namespace beacongnn::platforms {

void
writeCsvHeader(std::ostream &os)
{
    os << "platform,workload,ok,targets,total_ns,prep_ns,"
          "throughput_tps,flash_reads,channel_bytes,dram_bytes,"
          "pcie_bytes,feature_bytes,aborted,die_util,channel_util,"
          "core_util,dram_util,pcie_util,host_busy_ns,accel_busy_ns,"
          "wait_before_us,flash_us,wait_after_us,lifetime_us,"
          "energy_j,avg_power_w\n";
}

void
writeCsvRow(std::ostream &os, const RunResult &r)
{
    os << r.platform << ',' << r.workload << ',' << (r.ok ? 1 : 0)
       << ',' << r.targets << ',' << r.totalTime << ',' << r.prepTime
       << ',' << r.throughput << ',' << r.tally.flashReads << ','
       << r.tally.channelBytes << ',' << r.tally.dramBytes << ','
       << r.tally.pcieBytes << ',' << r.tally.featureBytes << ','
       << r.tally.abortedCommands << ',' << r.dieUtil << ','
       << r.channelUtil << ',' << r.coreUtil << ',' << r.dramUtil
       << ',' << r.pcieUtil << ',' << r.tally.hostCpuBusy << ','
       << r.accelBusy << ',' << r.cmdStats.waitBefore.mean() << ','
       << r.cmdStats.flashTime.mean() << ','
       << r.cmdStats.waitAfter.mean() << ','
       << r.cmdStats.lifetime.mean() << ',' << r.energy.total() << ','
       << r.avgPowerW << '\n';
}

void
writeSeriesCsv(std::ostream &os, const RunResult &r)
{
    auto emit = [&](const char *label,
                    const std::vector<double> &series) {
        if (series.empty())
            return;
        os << r.platform << '-' << r.workload << ',' << label;
        for (double v : series)
            os << ',' << v;
        os << '\n';
    };
    emit("active_dies", r.dieSeries);
    emit("active_channels", r.channelSeries);
}

std::string
summaryLine(const RunResult &r)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(1);
    ss << r.platform << " on " << r.workload << ": " << r.throughput
       << " targets/s, " << sim::toMillis(r.totalTime) << " ms, "
       << std::setprecision(3)
       << 1000.0 * r.energy.total() /
              static_cast<double>(std::max<std::uint64_t>(1, r.targets))
       << " mJ/target";
    if (r.degraded()) {
        // A faulted run says *what* was down and how the placement
        // absorbed it, instead of a bare [FAILED].
        ss << (r.ok ? " [degraded:" : " [FAILED, degraded:");
        ss << " down =";
        for (const KillEvent &k : r.faults) {
            ss << " dev" << k.device;
            if (k.die >= 0)
                ss << ".die" << k.die;
        }
        ss << ", R = " << r.replication << ", "
           << r.replicaFallbacks << " replica fallbacks]";
    } else if (!r.ok) {
        ss << " [FAILED]";
    }
    return ss.str();
}

} // namespace beacongnn::platforms
