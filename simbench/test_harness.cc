/**
 * @file
 * Tests of the benchmark's own helpers (harness.h): order statistics
 * against Python's statistics module, the exact percentile and its
 * histogram cross-check, the fingerprint, the span log's self time and
 * a read-back of the emitted result line.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace simbench;

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

// Expected values from Python 3: statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod)
{
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);

    q = quartiles({10, 1, 7, 3, 5}); // unsorted input
    EXPECT_DOUBLE_EQ(q.q1, 2.0);
    EXPECT_DOUBLE_EQ(q.q2, 5.0);
    EXPECT_DOUBLE_EQ(q.q3, 8.5);

    q = quartiles({1, 2}); // j clamps up: Python extrapolates
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.q2, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);

    q = quartiles({7});
    EXPECT_EQ(q.q1, 7.0);
    EXPECT_EQ(q.q3, 7.0);
}

TEST(ExactPercentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(exactPercentile(v, 50), 50.0);
    EXPECT_EQ(exactPercentile(v, 99), 99.0);
    EXPECT_EQ(exactPercentile(v, 100), 100.0);
    EXPECT_EQ(exactPercentile(v, 0), 1.0);
    EXPECT_EQ(exactPercentile({1, 2, 3, 4}, 50), 2.0);
    EXPECT_EQ(exactPercentile({5}, 99), 5.0);
    EXPECT_EQ(exactPercentile({}, 50), 0.0);
    // 2048 samples: p99 is rank ceil(2027.52) = 2028.
    std::vector<double> w(2048);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<double>(i);
    EXPECT_EQ(exactPercentile(w, 99), 2027.0);
}

TEST(PercentileOf, SortsACopy)
{
    const std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
    EXPECT_EQ(percentileOf(v, 10), 1.0);
    EXPECT_EQ(percentileOf(v, 11), 2.0); // rank ceil(1.1) = 2
    EXPECT_EQ(percentileOf(v, 50), 5.0);
    EXPECT_EQ(v.front(), 9.0);
    EXPECT_EQ(percentileOf({}, 10), 0.0);
}

TEST(SameBucket, AcceptsOwningBucketOnly)
{
    EXPECT_TRUE(sameBucket(260.0, 272.0, 50.0, 8192));
    EXPECT_TRUE(sameBucket(260.0, 300.0, 50.0, 8192)); // upper edge
    EXPECT_FALSE(sameBucket(260.0, 300.5, 50.0, 8192));
    EXPECT_FALSE(sameBucket(260.0, 249.0, 50.0, 8192));
    // Overflow bucket [150, inf) of a 4-bucket histogram.
    EXPECT_TRUE(sameBucket(900.0, 400.0, 50.0, 4));
    EXPECT_FALSE(sameBucket(900.0, 140.0, 50.0, 4));
}

// The kernel's work is fixed: a compiler or library that computed it
// differently would also time different work.
TEST(ReferenceKernel, ChecksumIsPinned)
{
    ReferenceKernel kernel;
    EXPECT_EQ(kernel.run(), 16685649576822314545ull);
    EXPECT_EQ(kernel.run(), 16685649576822314545ull); // reusable
}

TEST(Fingerprint, Fnv1a64)
{
    EXPECT_EQ(fingerprint(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fingerprint("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fingerprint("{\"x\": 1}"), fingerprint("{\"x\": 2}"));
    EXPECT_EQ(hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
    EXPECT_EQ(hex(1), "0000000000000001");
}

TEST(SpanLog, SelfTimeSubtractsChildrenAndHidden)
{
    SpanLog log;
    log.setRep(3);
    log.time("outer", [&] {
        log.time("inner", [] {});
        log.addHidden(0.0);
    });
    ASSERT_EQ(log.all().size(), 2u);
    const auto &outer = log.all()[0];
    const auto &inner = log.all()[1];
    EXPECT_EQ(outer.parent, -1);
    EXPECT_EQ(inner.parent, 0);
    EXPECT_EQ(inner.rep, 3u);
    EXPECT_NEAR(log.selfTimes()[0],
                (outer.end - outer.start) - (inner.end - inner.start), 1e-12);
    EXPECT_NEAR(log.selfTimes()[1], inner.end - inner.start, 1e-12);

    log.addHidden(0.25); // attributed to "outer", closed last
    EXPECT_EQ(log.all()[0].hidden, 0.25);
    EXPECT_NEAR(log.selfTimes()[0],
                (outer.end - outer.start) - (inner.end - inner.start) - 0.25,
                1e-12);
}

TEST(SpanLog, UnrecordedLogKeepsNothingButStillTimes)
{
    SpanLog log(false);
    volatile double sink = 0;
    const Lap lap = log.time("busy", [&] {
        for (int i = 0; i < 2000000; ++i)
            sink = sink + 1.0;
    });
    log.addHidden(1.0); // nothing to attribute it to
    EXPECT_TRUE(log.all().empty());
    EXPECT_GT(lap.wall, 0.0);
    EXPECT_GT(lap.cpu, 0.0);
    // The thread's CPU time cannot run ahead of the wall-clock around it
    // (the two clocks read a few ns apart, hence the slack).
    EXPECT_LE(lap.cpu, lap.wall + 1e-4);
}

/** Read the value printed for metric @p name back from @p line. */
double
readBack(const std::string &line, const std::string &name)
{
    const std::string key = "\"" + name + "\": {\"value\": ";
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        return std::numeric_limits<double>::quiet_NaN();
    return std::strtod(line.c_str() + at + key.size(), nullptr);
}

TEST(ResultLine, ValuesReadBackBitExact)
{
    const std::vector<Metric> ms = {
        {"host_s", 0.123456789012345678, "s"},
        {"cmds_per_host_s", 1.0 / 3.0 * 1e6, "1/s"},
        {"tiny", 4.9e-300, "count"},
        {"zero", 0.0, "ratio"},
    };
    const std::string line = resultLine(true, 12, 0, ms);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 12, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
    EXPECT_EQ(line.substr(line.size() - 2), "}}");
    for (const Metric &m : ms) {
        const double back = readBack(line, m.name);
        EXPECT_EQ(std::memcmp(&back, &m.value, sizeof back), 0) << m.name;
        EXPECT_NE(line.find("\"unit\": \"" + m.unit + "\""),
                  std::string::npos);
    }
    EXPECT_NE(resultLine(false, 1, 1, {}).find("\"correct\": false"),
              std::string::npos);
}

} // namespace
