/**
 * @file
 * Failover addressing tests: topo::failoverShard's sibling choice as
 * a pure function, and the end-to-end claim that a quarantined
 * shard's keys land on siblings — and still verify — under both
 * interleave modes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "access/runtime.hh"
#include "common/random.hh"
#include "fault/fault_plan.hh"
#include "health/health.hh"
#include "topo/topology.hh"

namespace kmu
{
namespace
{

using fault::FaultPlan;

TEST(FailoverShardTest, PicksOnlyRoutableSiblings)
{
    // Every candidate the salt can select is routable and is not the
    // sick shard itself.
    const std::uint64_t mask = 0b1101; // shard 1 quarantined too
    for (std::uint64_t salt = 0; salt < 16; ++salt) {
        const std::uint32_t t = topo::failoverShard(2, mask, 4, salt);
        EXPECT_NE(t, 2u);
        EXPECT_NE(t, 1u);
        EXPECT_NE(mask >> t & 1u, 0u);
    }
}

TEST(FailoverShardTest, SaltSpreadsOverAllCandidates)
{
    // With c candidates, salts 0..c-1 must cover all of them — the
    // spread is what keeps failover traffic from dogpiling one
    // sibling.
    std::uint64_t hit = 0;
    for (std::uint64_t salt = 0; salt < 3; ++salt)
        hit |= std::uint64_t(1) << topo::failoverShard(0, 0b1111, 4,
                                                       salt);
    EXPECT_EQ(hit, 0b1110u);
}

TEST(FailoverShardTest, DegeneratesToNaturalWithoutCandidates)
{
    // Single-shard topology, fully-quarantined mask, and
    // only-the-natural-routable all fall back to the natural owner.
    EXPECT_EQ(topo::failoverShard(0, 0b1, 1, 7), 0u);
    EXPECT_EQ(topo::failoverShard(1, 0b0000, 4, 7), 1u);
    EXPECT_EQ(topo::failoverShard(1, 0b0010, 4, 7), 1u);
}

TEST(FailoverShardTest, DeterministicInSalt)
{
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
        EXPECT_EQ(topo::failoverShard(3, 0b0111, 4, salt),
                  topo::failoverShard(3, 0b0111, 4, salt));
    }
}

constexpr std::size_t imageBytes = 256 * 1024;

std::vector<std::uint8_t>
patternImage()
{
    std::vector<std::uint8_t> image(imageBytes);
    for (std::size_t off = 0; off < imageBytes; off += 8) {
        const std::uint64_t v = mix64(off);
        std::memcpy(image.data() + off, &v, 8);
    }
    return image;
}

/**
 * End-to-end: hang shard 0 of a 4-shard runtime for a window long
 * enough to quarantine it, and prove its keys were served — with
 * correct data — by siblings while it was dark. The interleave mode
 * decides which lines those keys are, so both remaps must pass.
 */
void
outageFailsOverToSiblings(topo::Interleave interleave)
{
    Runtime::Config cfg;
    cfg.mechanism = Mechanism::SwQueue;
    cfg.deterministicDevice = true;
    cfg.shards = 4;
    cfg.interleave = interleave;
    cfg.health.mode = health::Mode::Full;
    // The watchdog must not exhaust while the shard is dark and
    // pre-quarantine; the deadline path bounds latency instead.
    cfg.retry.maxRetries = 1'000'000;
    Runtime rt(patternImage(), cfg);

    constexpr std::uint64_t fibers = 4;
    constexpr std::uint64_t ops = 1500;
    std::uint64_t ok = 0, deadline_errors = 0, mismatches = 0;
    for (std::uint64_t f = 0; f < fibers; ++f) {
        rt.spawnWorker([&, f](AccessEngine &eng) {
            Rng rng(mix64(0xfa110ull + f));
            for (std::uint64_t op = 0; op < ops; ++op) {
                const Addr a = rng.nextBounded(imageBytes / 8) * 8;
                std::uint64_t got = 0;
                if (eng.tryRead64(a, got) == AccessStatus::Ok) {
                    ok++;
                    if (got != mix64(a))
                        mismatches++;
                } else {
                    deadline_errors++;
                }
            }
        });
    }

    FaultPlan plan = FaultPlan::outage(/*seed=*/31, /*shardMask=*/0x1,
                                       /*hangWindow=*/4096,
                                       /*period=*/std::uint64_t(1)
                                           << 20);
    fault::install(&plan);
    rt.run();
    fault::install(nullptr);

    // Every request completed or errored, and nothing that completed
    // returned wrong bytes — a failed-over read that raced a posted
    // write would show up here.
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(ok + deadline_errors, fibers * ops);

    // The shard actually went dark, was quarantined, and its keys
    // were re-routed to siblings.
    ASSERT_NE(rt.healthController(), nullptr);
    const auto counters = rt.healthController()->counters();
    EXPECT_GE(counters.quarantines, 1u);
    EXPECT_GT(counters.failovers, 0u);
    EXPECT_GT(rt.engine().recovery().failovers, 0u);
}

TEST(FailoverTest, QuarantinedKeysLandOnSiblingsCacheLine)
{
    outageFailsOverToSiblings(topo::Interleave::CacheLine);
}

TEST(FailoverTest, QuarantinedKeysLandOnSiblingsPage)
{
    outageFailsOverToSiblings(topo::Interleave::Page);
}

} // anonymous namespace
} // namespace kmu
