/**
 * @file
 * End-to-end fault-survival tests: each recovery mechanism is pinned
 * against the fault it exists for, on a runtime whose emulated
 * device runs in deterministic manual-pump mode. Every test verifies
 * the *data* (reads still return the image pattern), not just the
 * counters — recovery that returns wrong bytes is not recovery.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "access/runtime.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "fault/fault_plan.hh"
#include "health/health.hh"

namespace kmu
{
namespace
{

using fault::FaultPlan;
using fault::FaultSite;

constexpr std::size_t imageBytes = 64 * 1024;

std::vector<std::uint8_t>
patternImage(std::size_t bytes)
{
    std::vector<std::uint8_t> image(bytes);
    for (std::size_t off = 0; off + 8 <= bytes; off += 8) {
        const std::uint64_t v = mix64(off);
        std::memcpy(image.data() + off, &v, 8);
    }
    return image;
}

/** Run a verifying read sweep under @p plan; returns mismatches. */
std::uint64_t
faultedSweep(Runtime &rt, FaultPlan &plan, std::size_t reads = 2048)
{
    std::uint64_t bad = 0;
    rt.spawnWorker([&](AccessEngine &dev) {
        Rng rng(99);
        for (std::size_t i = 0; i < reads; ++i) {
            const Addr a = rng.nextBounded(imageBytes / 8) * 8;
            if (dev.read64(a) != mix64(a))
                ++bad;
        }
    });
    fault::ScopedPlan active(plan);
    rt.run();
    return bad;
}

TEST(RecoveryTest, WatchdogReissuesLostCompletions)
{
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::SwQueue,
                .deterministicDevice = true});
    FaultPlan plan(11);
    plan.set(FaultSite::CompletionLoss, {.rate = 0.05});
    EXPECT_EQ(faultedSweep(rt, plan), 0u);
    EXPECT_GT(plan.injected(FaultSite::CompletionLoss), 0u);
    EXPECT_GT(rt.engine().recovery().timeouts, 0u);
    EXPECT_GT(rt.engine().recovery().retries, 0u);
    EXPECT_EQ(rt.engine().accesses(), 2048u);
}

TEST(RecoveryTest, CrcDetectsCorruptedPayloads)
{
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::SwQueue,
                .deterministicDevice = true});
    FaultPlan plan(12);
    plan.set(FaultSite::ResponseBitFlip, {.rate = 0.05});
    EXPECT_EQ(faultedSweep(rt, plan), 0u);
    EXPECT_GT(plan.injected(FaultSite::ResponseBitFlip), 0u);
    // Every flip must be caught by the CRC, never by the data check.
    EXPECT_GE(rt.engine().recovery().crcFailures,
              plan.injected(FaultSite::ResponseBitFlip));
    EXPECT_GT(rt.engine().recovery().retries, 0u);
}

TEST(RecoveryTest, LostDoorbellsRungByWatchdog)
{
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::SwQueue,
                .deterministicDevice = true});
    FaultPlan plan(13);
    plan.set(FaultSite::DoorbellLoss, {.rate = 0.10});
    EXPECT_EQ(faultedSweep(rt, plan), 0u);
    EXPECT_GT(plan.injected(FaultSite::DoorbellLoss), 0u);
    EXPECT_GT(rt.engine().recovery().recoveryDoorbells, 0u);
}

TEST(RecoveryTest, StaleCompletionsFilteredByGeneration)
{
    // No injected faults at all — instead an absurdly impatient
    // watchdog, so re-issues race their own still-in-flight
    // originals. The generation tag must shed every stale completion
    // and each access must complete exactly once with correct data.
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::SwQueue,
                .deterministicDevice = true,
                .retry = {.timeoutPolls = 2, .backoffBasePolls = 1}});
    FaultPlan plan(14); // empty plan: all rates zero
    EXPECT_EQ(faultedSweep(rt, plan), 0u);
    EXPECT_GT(rt.engine().recovery().timeouts, 0u);
    EXPECT_GT(rt.engine().recovery().staleCompletions, 0u);
    EXPECT_EQ(rt.engine().accesses(), 2048u);
}

TEST(RecoveryTest, ReorderedCompletionsDoNoHarm)
{
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::SwQueue,
                .deterministicDevice = true});
    FaultPlan plan(15);
    plan.set(FaultSite::CompletionReorder, {.rate = 0.10});
    EXPECT_EQ(faultedSweep(rt, plan), 0u);
    EXPECT_GT(plan.injected(FaultSite::CompletionReorder), 0u);
    EXPECT_EQ(rt.engine().accesses(), 2048u);
}

TEST(RecoveryTest, OnDemandRetriesMappedReadErrors)
{
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::OnDemand});
    FaultPlan plan(16);
    plan.set(FaultSite::MappedReadError, {.rate = 0.10});
    EXPECT_EQ(faultedSweep(rt, plan), 0u);
    EXPECT_GT(rt.engine().recovery().retries, 0u);
    EXPECT_EQ(rt.engine().accesses(), 2048u);
}

TEST(RecoveryTest, MappedReadOutOfRetriesFailsBackInsteadOfPanicking)
{
    // Every mapped read fails: each try* read spends its whole
    // budget of 3 re-issues, then reports RetriesExhausted; a read
    // on a clean plan still delivers the image.
    for (const Mechanism mech :
         {Mechanism::OnDemand, Mechanism::Prefetch}) {
        Runtime rt(patternImage(imageBytes),
                   {.mechanism = mech, .retry = {.maxRetries = 3}});
        FaultPlan plan(18);
        plan.set(FaultSite::MappedReadError, {.rate = 1.0});
        AccessStatus word = AccessStatus::Ok;
        AccessStatus line = AccessStatus::Ok;
        std::uint64_t clean = 0;
        rt.spawnWorker([&](AccessEngine &eng) {
            std::uint64_t got = 0;
            std::uint8_t buf[cacheLineSize];
            const Addr addr = 128;
            {
                fault::ScopedPlan scoped(plan);
                word = eng.tryRead64(addr, got);
                line = eng.tryReadLines(&addr, 1, buf);
            }
            EXPECT_EQ(eng.tryRead64(addr, clean), AccessStatus::Ok);
        });
        rt.run();
        EXPECT_EQ(word, AccessStatus::RetriesExhausted)
            << mechanismName(mech);
        EXPECT_EQ(line, AccessStatus::RetriesExhausted)
            << mechanismName(mech);
        EXPECT_EQ(rt.engine().recovery().retries, 6u)
            << mechanismName(mech);
        EXPECT_EQ(clean, mix64(128)) << mechanismName(mech);
        EXPECT_EQ(rt.engine().accesses(), 3u) << mechanismName(mech);
    }
}

TEST(RecoveryTest, GovernorDegradesPrefetchUnderPressureThenRecovers)
{
    // A widened retry budget: at 50 % burst pressure a run of 17
    // consecutive faults on one access (which would exhaust the
    // default budget) is rare but not impossible.
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::Prefetch,
                .retry = {.maxRetries = 32}});
    FaultPlan plan(17);
    // Sustained error burst, then clean: the governor must enter
    // Degraded during the burst and exit after it.
    plan.set(FaultSite::MappedReadError,
             {.rate = 0.5, .magnitude = 0, .burstPeriod = 1024,
              .burstLen = 256});
    EXPECT_EQ(faultedSweep(rt, plan, 4096), 0u);
    EXPECT_GT(rt.engine().recovery().degradedAccesses, 0u);
    EXPECT_GE(rt.degradation().degradations(), 1u);
    EXPECT_GE(rt.degradation().recoveries(), 1u);
    EXPECT_EQ(rt.engine().accesses(), 4096u);
}

/** Find a Gauge by name in @p group; fails the test if missing. */
const Gauge *
findGauge(StatGroup &group, const std::string &name)
{
    for (const StatBase *stat : group.stats()) {
        if (stat->name() == name)
            return dynamic_cast<const Gauge *>(stat);
    }
    return nullptr;
}

TEST(RecoveryTest, GaugesMirrorCountersAndConserve)
{
    // The runtime bridges its recovery and health counters as
    // pull-based Gauges so campaign drivers can dump them uniformly.
    // Run an outage, then check (a) every gauge reads live from its
    // owner — value == the counter it wraps — and (b) the health
    // transition counters satisfy their conservation law.
    Runtime rt(patternImage(imageBytes),
               {.mechanism = Mechanism::SwQueue,
                .shards = 4,
                .deterministicDevice = true,
                .retry = {.maxRetries = 1'000'000},
                .health = {.mode = health::Mode::Full}});
    FaultPlan plan = FaultPlan::outage(/*seed=*/19, /*shardMask=*/0x1,
                                       /*hangWindow=*/4096,
                                       /*period=*/std::uint64_t(1)
                                           << 20);
    std::uint64_t completed = 0;
    rt.spawnWorker([&](AccessEngine &eng) {
        Rng rng(5);
        for (std::size_t i = 0; i < 4096; ++i) {
            const Addr a = rng.nextBounded(imageBytes / 8) * 8;
            std::uint64_t got = 0;
            if (eng.tryRead64(a, got) == AccessStatus::Ok) {
                EXPECT_EQ(got, mix64(a));
                completed++;
            }
        }
    });
    fault::ScopedPlan active(plan);
    rt.run();
    EXPECT_GT(completed, 0u);

    ASSERT_NE(rt.healthController(), nullptr);
    const auto &rec = rt.engine().recovery();
    const auto health_counters = rt.healthController()->counters();
    const struct
    {
        const char *name;
        std::uint64_t want;
    } expected[] = {
        {"retries", rec.retries},
        {"timeouts", rec.timeouts},
        {"failovers", rec.failovers},
        {"deadline_errors", rec.deadlineErrors},
        {"health_degradations", health_counters.degradations},
        {"health_quarantines", health_counters.quarantines},
        {"health_recoveries", health_counters.recoveries},
        {"health_probes", health_counters.probes},
        {"health_failovers", health_counters.failovers},
    };
    for (const auto &e : expected) {
        const Gauge *gauge = findGauge(rt.stats(), e.name);
        ASSERT_NE(gauge, nullptr) << "no gauge named " << e.name;
        EXPECT_EQ(gauge->value(), e.want) << e.name;
    }

    // The outage demonstrably exercised the machinery being gauged.
    EXPECT_GE(health_counters.quarantines, 1u);
    EXPECT_GT(health_counters.failovers, 0u);
    EXPECT_GT(rec.retries, 0u);

    // Conservation: every Healthy->Degraded entry is matched by a
    // completed recovery or a shard still unhealthy right now.
    std::uint64_t unhealthy = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        if (rt.healthController()->state(s) !=
            health::ShardState::Healthy)
            unhealthy++;
    }
    EXPECT_EQ(health_counters.degradations,
              health_counters.recoveries + unhealthy);
    // And quarantines can never outnumber degradations: the only
    // path into QUARANTINED is through DEGRADED.
    EXPECT_LE(health_counters.quarantines,
              health_counters.degradations);
}

} // anonymous namespace
} // namespace kmu
