/**
 * @file
 * Tests for access-trace recording and plan synthesis.
 */

#include <gtest/gtest.h>

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

TEST(AccessTraceTest, EmptyTraceCannotPlan)
{
    AccessTrace trace;
    EXPECT_DEATH(trace.makePlan(100), "empty");
}

} // anonymous namespace
} // namespace kmu
