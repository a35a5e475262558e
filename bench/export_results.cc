/**
 * @file
 * Export the full evaluation grid (8 platforms x 5 workloads, plus
 * the traditional-SSD point) to CSV files under ./results/ for
 * external plotting:
 *
 *   results/fig14_runs.csv     — one row per (platform, workload)
 *   results/fig15_series.csv   — utilization time series
 *   results/sec7e_runs.csv     — the 20 us SSD grid
 *
 * The grids run in parallel (--jobs N / BGN_JOBS, default = cores);
 * results are collected in submission order so the CSVs are byte-
 * identical to a serial run.
 */

#include "common.h"

#include <filesystem>
#include <fstream>

#include "platforms/report.h"

using namespace bench;

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    std::filesystem::create_directories("results");

    {
        std::ofstream runs("results/fig14_runs.csv");
        std::ofstream series("results/fig15_series.csv");
        platforms::writeCsvHeader(runs);
        RunConfig rc = defaultRun();
        rc.traceUtilization = true;
        rc.utilizationBuckets = 64;
        auto results =
            runGrid(platforms::allPlatforms(), workloadNames(), rc);
        for (const RunResult &r : results) {
            platforms::writeCsvRow(runs, r);
            platforms::writeSeriesCsv(series, r);
            std::printf("%s\n", platforms::summaryLine(r).c_str());
        }
    }

    {
        std::ofstream runs("results/sec7e_runs.csv");
        platforms::writeCsvHeader(runs);
        RunConfig rc = defaultRun();
        rc.system.flash = rc.system.flash.asTraditional();
        std::vector<PlatformKind> kinds = {PlatformKind::CC};
        for (auto k : platforms::bgLadder())
            kinds.push_back(k);
        for (const RunResult &r : runGrid(kinds, workloadNames(), rc))
            platforms::writeCsvRow(runs, r);
    }

    std::printf("\nWrote results/fig14_runs.csv, "
                "results/fig15_series.csv, results/sec7e_runs.csv\n");
    return 0;
}
