/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"

namespace kmu
{
namespace
{

TEST(StatsTest, CounterIncrements)
{
    StatGroup group("g");
    Counter c(group, "events", "test events");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatsTest, AverageTracksMoments)
{
    StatGroup group("g");
    Average a(group, "lat", "latency");
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(10.0);
    a.sample(20.0);
    a.sample(30.0);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_DOUBLE_EQ(a.min(), 10.0);
    EXPECT_DOUBLE_EQ(a.max(), 30.0);
    EXPECT_EQ(a.samples(), 3u);
    a.reset();
    EXPECT_EQ(a.samples(), 0u);
    EXPECT_EQ(a.min(), 0.0);
}

TEST(StatsTest, GroupPathsNest)
{
    StatGroup root("system");
    StatGroup child("core0", &root);
    StatGroup grand("lfb", &child);
    EXPECT_EQ(root.path(), "system");
    EXPECT_EQ(child.path(), "system.core0");
    EXPECT_EQ(grand.path(), "system.core0.lfb");
}

TEST(StatsTest, DumpContainsAllStats)
{
    StatGroup root("sys");
    StatGroup child("sub", &root);
    Counter a(root, "alpha", "first");
    Counter b(child, "beta", "second");
    a += 7;
    b += 9;

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sys.alpha"), std::string::npos);
    EXPECT_NE(out.find("sys.sub.beta"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("# second"), std::string::npos);
}

TEST(StatsTest, ResetAllRecurses)
{
    StatGroup root("sys");
    StatGroup child("sub", &root);
    Counter a(root, "a", "");
    Counter b(child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatsTest, GaugeTracksSourceAndLatchesBaseline)
{
    StatGroup root("sys");
    std::uint64_t raw = 40;
    Gauge g(root, "g", "live value", [&raw] { return raw; });
    EXPECT_EQ(g.value(), 40u);
    EXPECT_EQ(g.render(), "40");

    // reset() latches the current raw value: dumps after resetAll()
    // report deltas, exactly like Counter.
    g.reset();
    EXPECT_EQ(g.value(), 0u);
    raw = 47;
    EXPECT_EQ(g.value(), 7u);
    EXPECT_EQ(g.render(), "7");
}

TEST(StatsTest, LogHistogramBucketBoundaries)
{
    StatGroup group("g");
    LogHistogram h(group, "lat", "", 1.0, 8); // [1, 256) + outliers
    EXPECT_EQ(h.buckets(), 8u);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(3), 8.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(7), 128.0);

    // A bucket's inclusive lower edge lands in that bucket; one ulp
    // under it lands one bucket down.
    h.sample(1.0);    // bucket 0
    h.sample(1.99);   // bucket 0
    h.sample(2.0);    // bucket 1
    h.sample(8.0);    // bucket 3
    h.sample(255.0);  // bucket 7
    h.sample(0.5);    // underflow
    h.sample(256.0);  // overflow (= lo * 2^buckets)
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(7), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.samples(), 7u);

    std::ostringstream os;
    os << h.render();
    EXPECT_NE(os.str().find("[<1|2 1 0 1 0 0 0 1|>1]"),
              std::string::npos);

    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(StatsTest, LogHistogramMergeRequiresSameShape)
{
    StatGroup group("g");
    LogHistogram a(group, "a", "", 1.0, 4);
    LogHistogram b(group, "b", "", 1.0, 4);
    a.sample(1.5);
    b.sample(3.0);
    b.sample(100.0); // overflow for 4 buckets ([1,16))
    a.merge(b);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_EQ(a.bucketCount(0), 1u);
    EXPECT_EQ(a.bucketCount(1), 1u);
    EXPECT_EQ(a.overflow(), 1u);
}

TEST(StatsTest, LogHistogramQuantileEmptyIsZero)
{
    StatGroup group("g");
    LogHistogram h(group, "lat", "", 1.0, 8);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(StatsTest, LogHistogramQuantileSingleSample)
{
    StatGroup group("g");
    LogHistogram h(group, "lat", "", 1.0, 8);
    h.sample(3.0); // bucket 1 spans [2, 4)
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
    // Out-of-range q clamps rather than walking off the buckets.
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(2.0), 4.0);
}

TEST(StatsTest, LogHistogramQuantileAllOneBucket)
{
    StatGroup group("g");
    LogHistogram h(group, "lat", "", 1.0, 8);
    for (int i = 0; i < 4; ++i)
        h.sample(5.0); // bucket 2 spans [4, 8)
    // Linear interpolation inside the one populated bucket.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
}

TEST(StatsTest, LogHistogramQuantileSpansBuckets)
{
    StatGroup group("g");
    LogHistogram h(group, "lat", "", 1.0, 8);
    h.sample(1.5);  // bucket 0: [1, 2)
    h.sample(3.0);  // bucket 1: [2, 4)
    h.sample(3.5);  // bucket 1
    h.sample(10.0); // bucket 3: [8, 16)
    // Rank 1 of 4 fills bucket 0 exactly: its upper edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.0);
    // Rank 2 of 4 is halfway into bucket 1.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
    // Rank 4 of 4 fills bucket 3: its upper edge.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 16.0);
}

TEST(StatsTest, LogHistogramQuantileOutlierClamps)
{
    StatGroup group("g");
    LogHistogram lo(group, "lo", "", 2.0, 4);
    lo.sample(0.5); // underflow
    lo.sample(1.0); // underflow
    EXPECT_DOUBLE_EQ(lo.quantile(0.5), 2.0);  // clamps to lower bound
    EXPECT_DOUBLE_EQ(lo.quantile(1.0), 2.0);

    LogHistogram hi(group, "hi", "", 1.0, 4); // covers [1, 16)
    hi.sample(3.0);
    hi.sample(100.0); // overflow
    hi.sample(200.0); // overflow
    // Ranks landing in the overflow clamp to its lower edge.
    EXPECT_DOUBLE_EQ(hi.quantile(1.0), 16.0);
    EXPECT_DOUBLE_EQ(hi.quantile(0.9), 16.0);
}

TEST(StatsTest, LogHistogramMergeThenQuantile)
{
    StatGroup group("g");
    LogHistogram a(group, "a", "", 1.0, 8);
    LogHistogram b(group, "b", "", 1.0, 8);
    LogHistogram all(group, "all", "", 1.0, 8);
    const double samples[] = {1.5, 3.0, 3.5, 6.0, 10.0, 24.0};
    for (std::size_t i = 0; i < 6; ++i) {
        (i < 3 ? a : b).sample(samples[i]);
        all.sample(samples[i]);
    }
    a.merge(b);
    EXPECT_EQ(a.samples(), all.samples());
    // Merged counts answer the same quantile queries as one
    // histogram fed every sample.
    for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
    EXPECT_DOUBLE_EQ(a.quantile(0.5), 4.0);
}

TEST(StatsDeathTest, LogHistogramMergeShapeMismatchPanics)
{
    StatGroup group("g");
    LogHistogram a(group, "a", "", 1.0, 4);
    LogHistogram c(group, "c", "", 2.0, 4);
    LogHistogram d(group, "d", "", 1.0, 5);
    EXPECT_DEATH(a.merge(c), "shape");
    EXPECT_DEATH(a.merge(d), "shape");
}

TEST(StatsTest, ChildUnregistersOnDestruction)
{
    StatGroup root("sys");
    {
        StatGroup child("gone", &root);
        Counter c(child, "x", "");
        c += 1;
    }
    std::ostringstream os;
    root.dump(os); // must not touch the destroyed child
    EXPECT_EQ(os.str().find("gone"), std::string::npos);
}

} // anonymous namespace
} // namespace kmu
