/**
 * @file
 * Tests for shard-scoped fault injection: a FaultSpec's shardMask
 * must gate injection per device shard without perturbing the RNG
 * schedule of the shards it does target.
 */

#include <gtest/gtest.h>

#include "fault/fault_plan.hh"

namespace kmu
{
namespace
{

TEST(FaultShardTest, MaskedShardNeverInjects)
{
    fault::FaultPlan plan(7);
    fault::FaultSpec spec;
    spec.rate = 1.0;
    spec.shardMask = std::uint64_t(1) << 1; // shard 1 only
    plan.set(fault::FaultSite::DeviceHang, spec);

    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(
            plan.shouldInject(fault::FaultSite::DeviceHang, 0));
    }
    EXPECT_EQ(plan.encounters(fault::FaultSite::DeviceHang), 5u);
    EXPECT_EQ(plan.injected(fault::FaultSite::DeviceHang), 0u);

    EXPECT_TRUE(plan.shouldInject(fault::FaultSite::DeviceHang, 1));
    EXPECT_EQ(plan.injected(fault::FaultSite::DeviceHang), 1u);
}

TEST(FaultShardTest, MaskedEncountersDrawNothing)
{
    // Interleaving masked-out encounters must leave the targeted
    // shard's injection schedule untouched: the masked path may not
    // consume from the site's RNG stream.
    const auto site = fault::FaultSite::Brownout;
    fault::FaultSpec spec;
    spec.rate = 0.5;

    fault::FaultPlan pure(42);
    spec.shardMask = ~std::uint64_t(0);
    pure.set(site, spec);
    bool expected[16];
    for (bool &e : expected)
        e = pure.shouldInject(site, 1);

    fault::FaultPlan masked(42);
    spec.shardMask = std::uint64_t(1) << 1;
    masked.set(site, spec);
    for (bool e : expected) {
        // A shard-0 encounter between every shard-1 encounter.
        EXPECT_FALSE(masked.shouldInject(site, 0));
        EXPECT_EQ(masked.shouldInject(site, 1), e);
    }
}

TEST(FaultShardTest, DefaultMaskCoversEveryShard)
{
    fault::FaultPlan plan(3);
    fault::FaultSpec spec;
    spec.rate = 1.0;
    plan.set(fault::FaultSite::CompletionLoss, spec);
    EXPECT_TRUE(
        plan.shouldInject(fault::FaultSite::CompletionLoss, 0));
    EXPECT_TRUE(
        plan.shouldInject(fault::FaultSite::CompletionLoss, 63));
}

TEST(FaultShardTest, ShardIndexWrapsAtSixtyFour)
{
    // shouldInject masks the shard index into the 64-bit mask, so a
    // (hypothetical) shard 64 aliases bit 0 rather than shifting
    // out of range.
    fault::FaultPlan plan(5);
    fault::FaultSpec spec;
    spec.rate = 1.0;
    spec.shardMask = 1; // bit 0
    plan.set(fault::FaultSite::DeviceHang, spec);
    EXPECT_TRUE(
        plan.shouldInject(fault::FaultSite::DeviceHang, 64));
}

} // anonymous namespace
} // namespace kmu
