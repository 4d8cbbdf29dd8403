/**
 * @file
 * Unit tests for the deterministic fault-injection subsystem: plan
 * determinism and site isolation (the properties the faultstorm
 * campaign's byte-identical CSVs rest on), plus the retry-backoff
 * and degradation-governor survival primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/recovery.hh"

namespace kmu
{
namespace
{

using fault::FaultPlan;
using fault::FaultSite;
using fault::FaultSpec;

TEST(FaultPlanTest, SameSeedSameSchedule)
{
    FaultPlan a(123);
    FaultPlan b(123);
    a.set(FaultSite::DescFetchTruncation, {.rate = 0.3});
    b.set(FaultSite::DescFetchTruncation, {.rate = 0.3});
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(a.shouldInject(FaultSite::DescFetchTruncation),
                  b.shouldInject(FaultSite::DescFetchTruncation))
            << "diverged at encounter " << i;
    }
    EXPECT_EQ(a.injected(FaultSite::DescFetchTruncation),
              b.injected(FaultSite::DescFetchTruncation));
    EXPECT_GT(a.injected(FaultSite::DescFetchTruncation), 2000u);
    EXPECT_LT(a.injected(FaultSite::DescFetchTruncation), 4000u);
}

TEST(FaultPlanTest, SitesDrawFromIsolatedStreams)
{
    // Interleaving encounters of a second site must not perturb the
    // first site's schedule — per-site streams are independent.
    FaultPlan pure(77);
    FaultPlan mixed(77);
    for (FaultPlan *p : {&pure, &mixed}) {
        p->set(FaultSite::CompletionLoss, {.rate = 0.25});
        p->set(FaultSite::DoorbellLoss, {.rate = 0.5});
    }
    std::vector<bool> pureSchedule;
    for (int i = 0; i < 5000; ++i)
        pureSchedule.push_back(pure.shouldInject(
            FaultSite::CompletionLoss));
    for (int i = 0; i < 5000; ++i) {
        mixed.shouldInject(FaultSite::DoorbellLoss); // interference
        ASSERT_EQ(mixed.shouldInject(FaultSite::CompletionLoss),
                  pureSchedule[std::size_t(i)])
            << "site cross-talk at encounter " << i;
    }
}

TEST(FaultPlanTest, RateZeroNeverFiresRateOneAlwaysFires)
{
    FaultPlan plan(9);
    plan.set(FaultSite::CompletionReorder, {.rate = 0.0});
    plan.set(FaultSite::OnDemandStall, {.rate = 1.0});
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(plan.shouldInject(FaultSite::CompletionReorder));
        EXPECT_TRUE(plan.shouldInject(FaultSite::OnDemandStall));
    }
    EXPECT_EQ(plan.injected(FaultSite::CompletionReorder), 0u);
    EXPECT_EQ(plan.encounters(FaultSite::CompletionReorder), 1000u);
    EXPECT_EQ(plan.injected(FaultSite::OnDemandStall), 1000u);
}

TEST(FaultPlanTest, BurstWindowGatesEligibility)
{
    FaultPlan plan(5);
    plan.set(FaultSite::MappedReadError,
             {.rate = 1.0, .magnitude = 0, .burstPeriod = 100,
              .burstLen = 25});
    std::uint64_t inBurst = 0;
    std::uint64_t outOfBurst = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const bool fired = plan.shouldInject(FaultSite::MappedReadError);
        if (i % 100 < 25)
            inBurst += fired;
        else
            outOfBurst += fired;
    }
    EXPECT_EQ(inBurst, 250u);    // rate 1: every eligible encounter
    EXPECT_EQ(outOfBurst, 0u);   // never outside the burst window
}

TEST(FaultPlanTest, DrawBoundedStaysInRange)
{
    FaultPlan plan(31);
    bool sawLow = false;
    bool sawHigh = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v =
            plan.drawBounded(FaultSite::ReplayEvictionStorm, 8);
        ASSERT_GE(v, 1u);
        ASSERT_LE(v, 8u);
        sawLow = sawLow || v == 1;
        sawHigh = sawHigh || v == 8;
    }
    EXPECT_TRUE(sawLow);
    EXPECT_TRUE(sawHigh);
}

TEST(FaultPlanTest, NoInstalledPlanIsInert)
{
    ASSERT_EQ(fault::plan(), nullptr);
    EXPECT_FALSE(fault::fire(FaultSite::ResponseBitFlip));
    EXPECT_EQ(fault::draw(FaultSite::ResponseBitFlip, 100), 1u);

    FaultPlan plan(1);
    plan.set(FaultSite::ResponseBitFlip, {.rate = 1.0});
    {
        fault::ScopedPlan active(plan);
        EXPECT_TRUE(fault::fire(FaultSite::ResponseBitFlip));
    }
    // Uninstalled again on scope exit.
    EXPECT_EQ(fault::plan(), nullptr);
    EXPECT_FALSE(fault::fire(FaultSite::ResponseBitFlip));
    EXPECT_EQ(plan.encounters(FaultSite::ResponseBitFlip), 1u);
}

TEST(FaultPlanTest, CompositeCoversEverySite)
{
    FaultPlan plan = FaultPlan::composite(3, 0.01);
    for (std::size_t s = 0; s < fault::numFaultSites; ++s) {
        EXPECT_GT(plan.spec(FaultSite(s)).rate, 0.0)
            << faultSiteName(FaultSite(s)) << " left cold";
    }
    // The bursty governor-exercise sites carry an elevated rate.
    EXPECT_GT(plan.spec(FaultSite::MappedReadError).rate, 0.01);
    EXPECT_GT(plan.spec(FaultSite::MappedReadError).burstPeriod, 0u);
}

TEST(RetryBackoffTest, DeadlinesGrowWithAttemptsAndStayBounded)
{
    fault::RetryPolicy policy;
    fault::RetryBackoff backoff(policy);
    std::uint64_t prevCeiling = 0;
    for (std::uint32_t attempt = 1; attempt <= 12; ++attempt) {
        // The exponential component is capped by backoffMaxShift and
        // jittered, so sample a window per attempt.
        std::uint64_t lo = ~0ull;
        std::uint64_t hi = 0;
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t d = backoff.deadlinePolls(attempt);
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
        EXPECT_GE(lo, policy.timeoutPolls);
        const std::uint64_t cap =
            policy.timeoutPolls +
            (std::uint64_t(policy.backoffBasePolls)
             << policy.backoffMaxShift) * 2;
        EXPECT_LE(hi, cap) << "attempt " << attempt;
        EXPECT_GE(hi, prevCeiling / 2); // roughly non-collapsing
        prevCeiling = hi;
    }
}

TEST(RetryBackoffTest, SameSeedSameJitterSequence)
{
    fault::RetryBackoff a{fault::RetryPolicy{}};
    fault::RetryBackoff b{fault::RetryPolicy{}};
    for (std::uint32_t attempt = 1; attempt <= 6; ++attempt) {
        for (int i = 0; i < 50; ++i) {
            ASSERT_EQ(a.deadlinePolls(attempt),
                      b.deadlinePolls(attempt));
        }
    }
}

TEST(DegradationGovernorTest, EntersAndExitsOnRetryPressure)
{
    fault::DegradationGovernor::Config cfg;
    cfg.minSamples = 32;
    fault::DegradationGovernor gov(cfg);

    // Clean warm-up: never degrades, however long it runs.
    for (int i = 0; i < 500; ++i) {
        gov.sample(false);
        ASSERT_FALSE(gov.degraded());
    }

    // Sustained retry pressure: EWMA climbs past the enter threshold.
    int toEnter = 0;
    while (!gov.degraded()) {
        gov.sample(true);
        ASSERT_LT(++toEnter, 1000) << "governor never degraded";
    }
    EXPECT_EQ(gov.degradations(), 1u);
    EXPECT_GT(gov.ewma(), 0.0);

    // Pressure relief: EWMA decays below the exit threshold.
    int toExit = 0;
    while (gov.degraded()) {
        gov.sample(false);
        ASSERT_LT(++toExit, 1000) << "governor never recovered";
    }
    EXPECT_EQ(gov.recoveries(), 1u);

    // Hysteresis: exit needs a much cleaner stream than entry, so
    // recovering took longer than degrading did.
    EXPECT_GT(toExit, toEnter);
}

TEST(DegradationGovernorTest, MinSamplesSuppressesColdStartFlap)
{
    fault::DegradationGovernor::Config cfg;
    cfg.minSamples = 64;
    fault::DegradationGovernor gov(cfg);
    // An all-retry burst shorter than minSamples must not trigger:
    // a handful of early faults is noise, not pressure.
    for (std::uint64_t i = 0; i + 1 < cfg.minSamples; ++i) {
        gov.sample(true);
        ASSERT_FALSE(gov.degraded()) << "flapped at sample " << i;
    }
}

} // anonymous namespace
} // namespace kmu
