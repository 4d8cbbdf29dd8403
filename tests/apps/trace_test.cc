/**
 * @file
 * Tests for access-trace recording, persistence, and plan synthesis.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "access/mapped_engine.hh"
#include "apps/access_trace.hh"

namespace kmu
{
namespace
{

TEST(AccessTraceTest, RecordsBatchesAndTotals)
{
    AccessTrace trace;
    trace.add(1);
    trace.add(4);
    trace.add(2);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.totalReads(), 7u);
    EXPECT_NEAR(trace.meanBatch(), 7.0 / 3.0, 1e-9);
    EXPECT_EQ(trace.batchAt(1), 4u);
}

TEST(AccessTraceTest, TracingEngineCapturesCalls)
{
    std::vector<std::uint8_t> image(8192, 0);
    Scheduler sched;
    MappedEngine inner(Mechanism::OnDemand, image.data(), image.size(),
                       sched);
    AccessTrace trace;
    TracingEngine traced(inner, trace);

    traced.read64(0);
    Addr addrs[3] = {64, 128, 192};
    std::uint64_t vals[3];
    traced.readBatch(addrs, 3, vals);
    std::uint8_t buf[2 * 64];
    Addr lines[2] = {256, 512};
    traced.readLines(lines, 2, buf);

    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.batchAt(0), 1u);
    EXPECT_EQ(trace.batchAt(1), 3u);
    EXPECT_EQ(trace.batchAt(2), 2u);
    EXPECT_EQ(traced.accesses(), 6u);
    EXPECT_EQ(inner.accesses(), 6u);
}

TEST(AccessTraceTest, PlanCyclesThroughTrace)
{
    AccessTrace trace;
    trace.add(2);
    trace.add(4);
    trace.add(1);
    const auto plan = trace.makePlan(100);

    // Same (core, thread): consecutive iterations cycle the trace.
    const auto p0 = plan(0, 0, 0);
    const auto p1 = plan(0, 0, 1);
    const auto p2 = plan(0, 0, 2);
    const auto p3 = plan(0, 0, 3);
    EXPECT_EQ(p0.work, 100u);
    EXPECT_EQ(p3.batch, p0.batch); // period 3
    const std::uint32_t sum = p0.batch + p1.batch + p2.batch;
    EXPECT_EQ(sum, 7u); // one full cycle covers the trace

    // Different threads start at different offsets but draw from the
    // same distribution.
    const auto q = plan(1, 3, 0);
    EXPECT_TRUE(q.batch == 1 || q.batch == 2 || q.batch == 4);
}

TEST(AccessTraceTest, PlanOutlivesTrace)
{
    std::function<IterationPlan(CoreId, ThreadId, std::uint64_t)> plan;
    {
        AccessTrace trace;
        trace.add(3);
        plan = trace.makePlan(50);
    }
    EXPECT_EQ(plan(0, 0, 0).batch, 3u);
}

TEST(AccessTraceTest, SaveLoadRoundTrip)
{
    AccessTrace trace;
    for (std::uint32_t b : {1u, 2u, 4u, 4u, 2u, 1u, 8u})
        trace.add(b);
    const std::string path = ::testing::TempDir() + "kmu_trace.txt";
    trace.save(path);

    const AccessTrace loaded = AccessTrace::load(path);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(loaded.batchAt(i), trace.batchAt(i));
    std::remove(path.c_str());
}

TEST(AccessTraceTest, EmptyTraceCannotPlan)
{
    AccessTrace trace;
    EXPECT_DEATH(trace.makePlan(100), "empty");
}

/** Write @p text to a temporary trace file named after the running
 *  test (ctest runs the tests in parallel) and return its path. */
std::string
writeTraceFile(const std::string &text)
{
    const std::string path =
        ::testing::TempDir() + "kmu_bad_trace_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".txt";
    std::ofstream(path) << text;
    return path;
}

TEST(AccessTraceTest, LoadRejectsNonNumericLine)
{
    const std::string path = writeTraceFile("1\n4x\n2\n");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt:2: batch '4x' is not a number");
    std::remove(path.c_str());
}

TEST(AccessTraceTest, LoadRejectsNegativeBatch)
{
    const std::string path = writeTraceFile("1\n2\n-1\n");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt:3: negative batch -1");
    std::remove(path.c_str());
}

TEST(AccessTraceTest, LoadRejectsZeroBatch)
{
    const std::string path = writeTraceFile("0\n");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt:1: zero batch");
    std::remove(path.c_str());
}

TEST(AccessTraceTest, LoadRejectsOutOfRangeBatch)
{
    std::string path = writeTraceFile("16\n17\n");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt:2: batch 17 out of range");
    path = writeTraceFile("99999999999999999999999\n");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt:1: batch '9+' out of range");
    std::remove(path.c_str());
}

TEST(AccessTraceTest, LoadRejectsEmptyFileAndBlankLines)
{
    std::string path = writeTraceFile("");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt: empty access trace");
    path = writeTraceFile("1\n\n2\n");
    EXPECT_EXIT(AccessTrace::load(path), ::testing::ExitedWithCode(1),
                "\\.txt:2: empty line");
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace kmu
