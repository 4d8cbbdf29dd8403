/**
 * @file
 * Unit tests for time units and SimObject plumbing.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "sim/sim_object.hh"

namespace kmu
{
namespace
{

TEST(UnitsTest, TimeConstructors)
{
    EXPECT_EQ(nanoseconds(1), 1000u);
    EXPECT_EQ(microseconds(1), 1000000u);
    EXPECT_EQ(milliseconds(1), 1000000000u);
    EXPECT_DOUBLE_EQ(ticksToNs(nanoseconds(5)), 5.0);
    EXPECT_DOUBLE_EQ(ticksToUs(microseconds(3)), 3.0);
}

TEST(UnitsTest, TransferTicks)
{
    // 4 GB/s: 64 bytes take 16 ns.
    EXPECT_EQ(transferTicks(64, 4'000'000'000ull), nanoseconds(16));
    // Rounds up: 1 byte at 4 GB/s is 0.25 ns -> 250 ps exactly.
    EXPECT_EQ(transferTicks(1, 4'000'000'000ull), picoseconds(250));
    // Zero bytes transfer instantly.
    EXPECT_EQ(transferTicks(0, 1000), 0u);
}

TEST(SimObjectTest, NameQueueAndStats)
{
    EventQueue eq;
    StatGroup root("root");
    SimObject obj("widget", eq, &root);
    EXPECT_EQ(obj.name(), "widget");
    EXPECT_EQ(obj.curTick(), 0u);
    EXPECT_EQ(obj.stats().path(), "root.widget");
    eq.scheduleLambda(42, []() {});
    eq.run();
    EXPECT_EQ(obj.curTick(), 42u);
}

} // anonymous namespace
} // namespace kmu
