/**
 * @file
 * The options layer of bgnsim and bgnserve (DESIGN.md §18): both
 * tools' full flag tables fill the same RunConfig, ServeConfig and
 * output fields their hand-written parsers filled, every malformed
 * value is rejected with a message naming its flag, the cross-flag
 * checks hold, and a seeded mutation loop over the ctest smoke
 * command lines never crashes the parser.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "run_options.h"
#include "sim/rng.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::tools;

using Argv = std::vector<std::string>;

/** parseArgs() over @p args (argv[0] is the tool name). */
Parsed
parse(const FlagTable &flags, const Argv &args)
{
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return parseArgs(flags, static_cast<int>(argv.size()), argv.data());
}

Parsed
parseSim(SimOptions &o, const Argv &args)
{
    return parse(simFlags(o), args);
}

Parsed
parseServe(ServeOptions &o, const Argv &args)
{
    return parse(serveFlags(o), args);
}

TEST(RunOptions, SimDefaults)
{
    SimOptions o;
    Parsed p = parseSim(o, {"bgnsim"});
    EXPECT_TRUE(p.error.empty());
    EXPECT_EQ(o.kinds, std::vector{platforms::PlatformKind::BG2});
    ASSERT_EQ(o.workloads.size(), 1u);
    EXPECT_EQ(o.workloads[0].name, "amazon");
    EXPECT_EQ(o.run.batchSize, 128u);
    EXPECT_EQ(o.run.batches, 4u);
    EXPECT_EQ(o.model, gnn::ModelConfig{});
    EXPECT_FALSE(o.algo);
    EXPECT_EQ(check(o), "");
}

TEST(RunOptions, SimArgvFillsEveryField)
{
    SimOptions o;
    Parsed p = parseSim(
        o, {"bgnsim", "--platform", "BG-DG,bg2", "--workload", "ogbn,PPI",
            "--nodes", "2000", "--channels", "4", "--dies", "2",
            "--devices", "2", "--p2p-mbps", "8000", "--p2p-latency-us", "3",
            "--partition", "balanced", "--replication", "2",
            "--retry-prob", "0.01", "--die-kill", "1@5,0.3@7",
            "--cache-mb", "16", "--cache-policy", "mslru", "--jobs", "3",
            "--csv", "a.csv", "--metrics", "m.json", "--metrics-csv",
            "m.csv", "--trace", "t.json", "--batches", "2", "--batch-size",
            "16", "--hops", "2", "--fanout", "4", "--model", "gat",
            "--fanouts", "3,2", "--algo", "bfs", "--cores", "2",
            "--page-kb", "8", "--channel-mbps", "1200", "--traditional",
            "--dedupe", "--no-coalesce", "--seed", "42", "--zipf-theta",
            "0.99", "--trace-util"});
    ASSERT_EQ(p.error, "");
    EXPECT_FALSE(p.help);
    EXPECT_EQ(o.kinds, (std::vector{platforms::PlatformKind::BG_DG,
                                    platforms::PlatformKind::BG2}));
    ASSERT_EQ(o.workloads.size(), 2u);
    EXPECT_EQ(o.workloads[0].name, "OGBN"); // Canonical capitalization.
    EXPECT_EQ(o.workloads[1].name, "PPI");
    EXPECT_EQ(o.nodes, 2000u);
    EXPECT_EQ(o.jobs, 3u);
    const platforms::RunConfig &rc = o.run;
    EXPECT_EQ(rc.system.flash.channels, 4u);
    EXPECT_EQ(rc.system.flash.diesPerChannel, 2u);
    EXPECT_EQ(rc.system.flash.pageSize, 8192u);
    EXPECT_EQ(rc.system.flash.channelMBps, 1200.0);
    EXPECT_EQ(rc.system.flash.readLatency, sim::microseconds(20));
    EXPECT_EQ(rc.system.controller.cores, 2u);
    EXPECT_EQ(rc.system.disturb.retryProb, 0.01);
    EXPECT_EQ(rc.topology.devices, 2u);
    EXPECT_EQ(rc.topology.p2pMBps, 8000.0);
    EXPECT_EQ(rc.topology.p2pLatency, sim::microseconds(3));
    EXPECT_EQ(rc.topology.partition, platforms::PartitionPolicy::Balanced);
    EXPECT_EQ(rc.topology.replication, 2u);
    ASSERT_EQ(rc.kills.size(), 2u);
    EXPECT_EQ(rc.kills[0].device, 1u);
    EXPECT_EQ(rc.kills[0].die, -1);
    EXPECT_EQ(rc.kills[0].at, sim::microseconds(5));
    EXPECT_EQ(rc.kills[1].device, 0u);
    EXPECT_EQ(rc.kills[1].die, 3);
    EXPECT_EQ(rc.kills[1].at, sim::microseconds(7));
    EXPECT_EQ(rc.cache.capacityMB, 16.0);
    EXPECT_EQ(rc.cache.policy, cache::CachePolicy::MsLru);
    EXPECT_EQ(rc.batches, 2u);
    EXPECT_EQ(rc.batchSize, 16u);
    EXPECT_EQ(rc.targetSeed, 42u);
    EXPECT_EQ(rc.zipfTheta, 0.99);
    EXPECT_TRUE(rc.traceUtilization);
    EXPECT_EQ(o.model.hops, 2u);
    EXPECT_EQ(o.model.fanout, 4u);
    EXPECT_EQ(o.model.kind, gnn::ModelKind::GAT);
    EXPECT_EQ(o.model.fanouts, (std::vector<std::uint8_t>{3, 2}));
    EXPECT_EQ(o.algo, gnn::AlgoKind::Bfs);
    EXPECT_TRUE(o.dedupe);
    EXPECT_TRUE(o.noCoalesce);
    EXPECT_EQ(o.csvPath, "a.csv");
    EXPECT_EQ(o.metricsPath, "m.json");
    EXPECT_EQ(o.metricsCsvPath, "m.csv");
    EXPECT_EQ(o.tracePath, "t.json");
    // Four cells cannot share one trace.
    EXPECT_EQ(check(o), "--trace requires a single run");
}

TEST(RunOptions, ServeDefaults)
{
    ServeOptions o;
    Parsed p = parseServe(o, {"bgnserve"});
    EXPECT_TRUE(p.error.empty());
    EXPECT_EQ(o.kinds, (std::vector{platforms::PlatformKind::CC,
                                    platforms::PlatformKind::BG2}));
    EXPECT_EQ(o.rates, (std::vector<double>{500, 1000, 2000, 4000}));
    EXPECT_EQ(o.serve.arrivals.requests, serve::ArrivalConfig{}.requests);
    EXPECT_TRUE(o.serve.models.empty());
    EXPECT_EQ(check(o, o.rates.size()), "");
}

TEST(RunOptions, ServeArgvFillsEveryField)
{
    ServeOptions o;
    Parsed p = parseServe(
        o, {"bgnserve", "--platform", "BG-2", "--workload", "reddit",
            "--rates", "1000,2500.5", "--requests", "48", "--seed", "3",
            "--arrival", "bursty", "--burst-factor", "4", "--max-batch",
            "16", "--timeout-us", "500", "--tenants", "6", "--model",
            "gcn,gin", "--slo-ms", "1,2,3", "--zipf-theta", "0.5",
            "--breakdown", "--devices", "4", "--cache-mb", "8", "--csv",
            "s.csv"});
    ASSERT_EQ(p.error, "");
    EXPECT_EQ(o.kinds, std::vector{platforms::PlatformKind::BG2});
    EXPECT_EQ(o.workloads[0].name, "reddit");
    EXPECT_EQ(o.rates, (std::vector<double>{1000, 2500.5}));
    const serve::ServeConfig &sc = o.serve;
    EXPECT_EQ(sc.arrivals.requests, 48u);
    EXPECT_EQ(sc.arrivals.seed, 3u);
    EXPECT_EQ(sc.arrivals.process, serve::ArrivalProcess::Bursty);
    EXPECT_EQ(sc.arrivals.burstFactor, 4.0);
    EXPECT_EQ(sc.arrivals.tenants, 6u);
    EXPECT_EQ(sc.arrivals.zipfTheta, 0.5);
    EXPECT_EQ(sc.policy.maxBatch, 16u);
    EXPECT_EQ(sc.policy.timeout, sim::microseconds(500));
    EXPECT_EQ(sc.models,
              (std::vector{gnn::ModelKind::GCN, gnn::ModelKind::GIN}));
    EXPECT_EQ(sc.slo.target,
              (std::array{sim::milliseconds(1), sim::milliseconds(2),
                          sim::milliseconds(3)}));
    EXPECT_TRUE(o.breakdown);
    EXPECT_EQ(o.run.topology.devices, 4u);
    EXPECT_EQ(o.run.cache.capacityMB, 8.0);
    EXPECT_EQ(o.csvPath, "s.csv");
    EXPECT_EQ(check(o, o.rates.size()), "");
}

// ------------------------------------------------- malformed values

struct BadValue
{
    bool serve; ///< bgnserve's table, else bgnsim's.
    Argv args;
    const char *message; ///< Expected prefix of the error.
};

TEST(RunOptions, MalformedValuesNameTheirFlag)
{
    const std::vector<BadValue> cases = {
        // Each of these once ran on a wrapped or garbage value.
        {false, {"--page-kb", "0"}, "bad --page-kb '0' ("},
        {false, {"--page-kb", "4194304"}, "bad --page-kb '4194304' ("},
        {false, {"--hops", "256"}, "bad --hops '256' ("},
        {false, {"--hops", "300"}, "bad --hops '300' ("},
        {false, {"--fanout", "256"}, "bad --fanout '256' ("},
        {false, {"--p2p-latency-us", "0.5"}, "bad --p2p-latency-us '0.5' ("},
        {false, {"--batches", "abc"}, "bad --batches 'abc' ("},
        {false, {"--dies", "0"}, "bad --dies '0' ("},
        {false, {"--channels", "0"}, "bad --channels '0' ("},
        {true, {"--timeout-us", "abc"}, "bad --timeout-us 'abc' ("},
        {true, {"--slo-ms", "abc,1,2"}, "bad --slo-ms 'abc' ("},
        {true, {"--tenants", "abc"}, "bad --tenants 'abc' ("},
        {true, {"--burst-factor", "0"}, "bad --burst-factor '0' ("},
        {true, {"--burst-factor", "-1"}, "bad --burst-factor '-1' ("},
        {true, {"--rates", "inf"}, "bad --rates 'inf' ("},
        {true, {"--rates", "1e-300"}, "bad --rates '1e-300' ("},
        // The typed-parser rules behind them.
        {false, {"--nodes", "-1"}, "bad --nodes '-1' ("},
        {false, {"--nodes", "+5"}, "bad --nodes '+5' ("},
        {false, {"--nodes", " 5"}, "bad --nodes ' 5' ("},
        {false, {"--nodes", "5x"}, "bad --nodes '5x' ("},
        {false, {"--nodes", ""}, "bad --nodes '' ("},
        {false, {"--nodes", "4294967296"}, "bad --nodes '4294967296' ("},
        {false, {"--seed", "99999999999999999999"}, "bad --seed '"},
        {false, {"--jobs", "-1"}, "bad --jobs '-1' ("},
        {false, {"--channel-mbps", "nan"}, "bad --channel-mbps 'nan' ("},
        {false, {"--p2p-mbps", "1e999"}, "bad --p2p-mbps '1e999' ("},
        {false, {"--cache-mb", "abc"}, "bad --cache-mb 'abc' ("},
        {false, {"--retry-prob", "nan"}, "bad --retry-prob 'nan' ("},
        {false, {"--die-kill", "0.4294967295@10"},
         "bad --die-kill '0.4294967295@10' (want DEV@US or DEV.DIE@US)"},
        {false, {"--fanouts", "3,256"}, "bad --fanouts '3,256' ("},
        {true, {"--slo-ms", "1,2,18446744073710"},
         "bad --slo-ms '18446744073710' ("},
        {true, {"--timeout-us", "18446744073709552"},
         "bad --timeout-us '18446744073709552' ("},
        // The named checks keep their historical texts.
        {false, {"--platform", "NOPE"}, "unknown platform 'NOPE' (valid: "},
        {false, {"--platform", ","}, "--platform needs at least one name"},
        {false, {"--workload", "nope"}, "unknown workload 'nope' (valid: "},
        {false, {"--model", "nope"}, "unknown model 'nope' (valid: "},
        {false, {"--algo", "nope"}, "unknown algo 'nope' (valid: "},
        {false, {"--partition", "nope"}, "unknown partition 'nope' (valid: "},
        {false, {"--cache-policy", "nope"},
         "unknown cache policy 'nope' (valid: "},
        {false, {"--cache-mb", "0"}, "--cache-mb must be positive (omit"},
        {false, {"--zipf-theta", "-1"}, "--zipf-theta must be positive"},
        {false, {"--retry-prob", "2"}, "--retry-prob must be in [0, 1]"},
        {true, {"--zipf-theta", "0"}, "--zipf-theta must be positive"},
        {true, {"--model", ""}, "--model needs at least one name (valid: "},
        {true, {"--model", "gcn,nope"}, "unknown model 'nope' (valid: "},
        {true, {"--arrival", "nope"},
         "unknown arrival process 'nope' (valid: poisson, bursty)"},
        {true, {"--slo-ms", "1,2"}, "--slo-ms needs 3 values"},
        {true, {"--rates", ","}, "--rates needs at least one rate"},
    };
    for (const BadValue &c : cases) {
        Argv args = {"tool"};
        args.insert(args.end(), c.args.begin(), c.args.end());
        SimOptions so;
        ServeOptions vo;
        Parsed p = c.serve ? parseServe(vo, args) : parseSim(so, args);
        EXPECT_EQ(p.error.rfind(c.message, 0), 0u)
            << c.args[0] << " " << c.args[1] << " -> '" << p.error << "'";
        EXPECT_FALSE(p.usage);
    }
}

TEST(RunOptions, MeaningfulEdgeValuesStillParse)
{
    SimOptions o;
    Parsed p = parseSim(
        o, {"bgnsim", "--hops", "0", "--batches", "0", "--cores", "0",
            "--channel-mbps", "0", "--jobs", "0", "--nodes", "0",
            "--page-kb", "4194303", "--p2p-latency-us", "0", "--die-kill",
            ""});
    ASSERT_EQ(p.error, "");
    EXPECT_EQ(o.model.hops, 0u);
    EXPECT_EQ(o.run.batches, 0u);
    EXPECT_EQ(o.run.system.controller.cores, 0u);
    EXPECT_EQ(o.run.system.flash.channelMBps, 0.0);
    EXPECT_EQ(o.run.system.flash.pageSize, 4194303u * 1024u);
    EXPECT_EQ(o.run.topology.p2pLatency, 0u);
    EXPECT_TRUE(o.run.kills.empty());
}

// ------------------------------------------------ the CLI contract

TEST(RunOptions, HelpUnknownAndMissing)
{
    SimOptions o;
    const FlagTable flags = simFlags(o);
    EXPECT_TRUE(parse(flags, {"bgnsim", "--nodes", "10", "-h"}).help);
    EXPECT_TRUE(parse(flags, {"bgnsim", "--help", "--bogus"}).help);

    Parsed p = parse(flags, {"bgnsim", "--bogus", "--help"});
    EXPECT_FALSE(p.help);
    EXPECT_EQ(p.error, "unknown option '--bogus'");
    EXPECT_TRUE(p.usage);

    p = parse(flags, {"bgnsim", "--nodes"});
    EXPECT_EQ(p.error, "--nodes needs a value (N)");
    EXPECT_TRUE(p.usage);

    // A switch takes no value: the next token is the next flag.
    p = parse(flags, {"bgnsim", "--dedupe", "--nodes", "7"});
    EXPECT_EQ(p.error, "");
    EXPECT_EQ(o.nodes, 7u);
}

TEST(RunOptions, UsageListsEveryFlagOnce)
{
    SimOptions so;
    ServeOptions vo;
    for (const auto &[tool, flags] :
         {std::pair{"bgnsim", simFlags(so)},
          std::pair{"bgnserve", serveFlags(vo)}}) {
        const std::string text = usage(tool, flags);
        EXPECT_EQ(text.rfind(std::string("usage: ") + tool, 0), 0u);
        for (const Flag &f : flags) {
            const std::string line = std::string("  ") + f.name + " ";
            const std::size_t at = text.find(line);
            EXPECT_NE(at, std::string::npos) << f.name;
            EXPECT_EQ(text.find(line, at + 1), std::string::npos) << f.name;
        }
    }
}

TEST(RunOptions, CrossFlagChecks)
{
    SimOptions o;
    ASSERT_EQ(parseSim(o, {"bgnsim", "--devices", "0"}).error, "");
    EXPECT_EQ(check(o), "--devices must be >= 1");

    o = SimOptions();
    ASSERT_EQ(parseSim(o, {"bgnsim", "--devices", "257"}).error, "");
    EXPECT_EQ(check(o),
              "--devices must be <= 256 (the engine's device limit)");

    o = SimOptions();
    ASSERT_EQ(parseSim(o, {"bgnsim", "--replication", "0"}).error, "");
    EXPECT_EQ(check(o), "--replication must be >= 1");

    o = SimOptions();
    ASSERT_EQ(parseSim(o, {"bgnsim", "--devices", "2", "--die-kill",
                           "2@0"})
                  .error,
              "");
    EXPECT_EQ(check(o), "--die-kill names device 2 of a 2-device topology");

    o = SimOptions();
    ASSERT_EQ(parseSim(o, {"bgnsim", "--channels", "1", "--dies", "2",
                           "--die-kill", "0.3@10"})
                  .error,
              "");
    EXPECT_EQ(check(o), "--die-kill names die 3 of a 2-die device");

    o = SimOptions();
    ASSERT_EQ(parseSim(o, {"bgnsim", "--devices", "2", "--platform",
                           "BG-2,CC"})
                  .error,
              "");
    EXPECT_EQ(check(o), "--devices 2 needs a streaming (DirectGraph) "
                        "platform; 'CC' is not");

    ServeOptions s;
    ASSERT_EQ(parseServe(s, {"bgnserve", "--platform", "BG-2", "--trace",
                             "t.json"})
                  .error,
              "");
    EXPECT_EQ(check(s, s.rates.size()), "--trace requires a single run");
    ASSERT_EQ(parseServe(s, {"bgnserve", "--rates", "2000"}).error, "");
    EXPECT_EQ(check(s, s.rates.size()), "");
}

// --------------------------------------------------- mutation fuzz

/** The bgnsim/bgnserve command lines of the ctest smoke tests, the CI
 *  fault smoke, and one line per tool that sets its numeric flags. */
const std::vector<std::pair<bool, Argv>> &
smokeLines()
{
    static const std::vector<std::pair<bool, Argv>> lines = {
        {false, {"--workload", "OGBN", "--nodes", "2000", "--batches", "1",
                 "--batch-size", "16"}},
        {false, {"--platform", "CC", "--workload", "movielens", "--nodes",
                 "2000", "--batches", "1", "--batch-size", "16",
                 "--traditional"}},
        {true, {"--platform", "BG-2", "--workload", "OGBN", "--nodes",
                "2000", "--rates", "2000", "--requests", "48",
                "--max-batch", "16", "--seed", "3"}},
        {false, {"--workload", "OGBN", "--nodes", "2000", "--batches", "2",
                 "--batch-size", "16", "--cache-mb", "16",
                 "--cache-policy", "mslru", "--zipf-theta", "0.99"}},
        {true, {"--platform", "CC", "--workload", "OGBN", "--nodes", "2000",
                "--rates", "2000", "--requests", "48", "--max-batch", "16",
                "--seed", "3", "--cache-mb", "16", "--zipf-theta",
                "0.99"}},
        {false, {"--workload", "OGBN", "--nodes", "2000", "--batches", "1",
                 "--batch-size", "16", "--model", "gin"}},
        {false, {"--workload", "OGBN", "--nodes", "2000", "--batches", "1",
                 "--batch-size", "16", "--model", "gat", "--fanouts",
                 "3,2,2"}},
        {false, {"--platform", "CC", "--workload", "OGBN", "--nodes",
                 "2000", "--batch-size", "16", "--algo", "pagerank"}},
        {true, {"--platform", "BG-2", "--workload", "OGBN", "--nodes",
                "2000", "--rates", "2000", "--requests", "48",
                "--max-batch", "16", "--seed", "3", "--model",
                "gcn,gin,gat"}},
        {false, {"--platform", "BG-2", "--workload", "amazon", "--devices",
                 "8", "--nodes", "4000", "--batches", "2", "--batch-size",
                 "64", "--replication", "2", "--die-kill", "3@0",
                 "--retry-prob", "0.01"}},
        {true, {"--arrival", "bursty", "--burst-factor", "8",
                "--max-batch", "16", "--timeout-us", "500", "--breakdown",
                "--slo-ms", "5,20,100", "--tenants", "4", "--p2p-latency-us",
                "1"}},
        {false, {"--hops", "3", "--fanout", "3", "--cores", "4",
                 "--page-kb", "4", "--channel-mbps", "800", "--seed", "7",
                 "--p2p-mbps", "4000"}},
    };
    return lines;
}

TEST(RunOptions, MutatedCommandLinesNeverCrash)
{
    static const std::array<const char *, 4> kPoison = {
        "-1", "inf", "nan", "99999999999999999999"};
    sim::Pcg32 rng(0xC11F00D, 7);
    std::size_t accepted = 0, rejected = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const auto &[serve, base] =
            smokeLines()[rng.below(static_cast<std::uint32_t>(
                smokeLines().size()))];
        Argv args = base;
        const std::uint32_t mutations = 1 + rng.below(3);
        for (std::uint32_t m = 0; m < mutations && !args.empty(); ++m) {
            const auto at = static_cast<std::ptrdiff_t>(
                rng.below(static_cast<std::uint32_t>(args.size())));
            switch (rng.below(4)) {
              case 0: args.erase(args.begin() + at); break;
              case 1: {
                  const std::string copy = args[at];
                  args.insert(args.begin() + at, copy);
                  break;
              }
              case 2: args[at].clear(); break;
              default: args[at] = kPoison[rng.below(4)]; break;
            }
        }
        args.insert(args.begin(), serve ? "bgnserve" : "bgnsim");
        SimOptions so;
        ServeOptions vo;
        Parsed p = serve ? parseServe(vo, args) : parseSim(so, args);
        if (p.error.empty())
            p.error = serve ? check(vo, vo.rates.size()) : check(so);
        (p.error.empty() ? accepted : rejected) += 1;
    }
    // Both outcomes occur: the loop exercises the parsers, not just
    // the first-token rejection.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
