/**
 * @file
 * Unit and concurrency tests for the SPSC ring buffer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/thread_annotations.hh"
#include "queue/spsc_ring.hh"

namespace kmu
{
namespace
{

TEST(SpscRingTest, PushPopRoundTrip)
{
    SpscRing<int> ring(8);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ring.tryPush(42));
    EXPECT_EQ(ring.size(), 1u);
    int out = 0;
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 42);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, CapacityIsDepthMinusOne)
{
    SpscRing<int> ring(8);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    EXPECT_EQ(ring.capacity(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(7)); // full
    int out;
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_TRUE(ring.tryPush(7)); // room again
}

TEST(SpscRingTest, PopOnEmptyFails)
{
    SpscRing<int> ring(4);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    int out = -1;
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_EQ(out, -1);
}

TEST(SpscRingTest, FifoOrderAcrossWraparound)
{
    SpscRing<int> ring(4);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    int expect = 0;
    int produced = 0;
    for (int round = 0; round < 10; ++round) {
        while (ring.tryPush(produced))
            produced++;
        int out;
        while (ring.tryPop(out))
            EXPECT_EQ(out, expect++);
    }
    EXPECT_EQ(expect, produced);
    EXPECT_GT(produced, 20);
}

TEST(SpscRingTest, PopBurstHonorsMax)
{
    SpscRing<int> ring(16);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    for (int i = 0; i < 10; ++i)
        ring.tryPush(i);
    std::vector<int> out;
    EXPECT_EQ(ring.popBurst(out, 8), 8u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(ring.popBurst(out, 8), 2u);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(ring.popBurst(out, 8), 0u);
}

TEST(SpscRingTest, NonPowerOfTwoRejected)
{
    EXPECT_DEATH(SpscRing<int>(6), "power of two");
}

TEST(SpscRingTest, ThreadedProducerConsumer)
{
    SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t total = 200000;

    std::thread producer([&]() {
        RoleGuard produce(ring.producerRole); // this thread: producer
        for (std::uint64_t i = 0; i < total;) {
            if (ring.tryPush(i))
                i++;
        }
    });

    RoleGuard consume(ring.consumerRole); // main thread: consumer
    std::uint64_t expect = 0;
    std::uint64_t sum = 0;
    while (expect < total) {
        std::uint64_t v;
        if (ring.tryPop(v)) {
            ASSERT_EQ(v, expect);
            sum += v;
            expect++;
        }
    }
    producer.join();
    EXPECT_EQ(sum, total * (total - 1) / 2);
}

/**
 * One run of the multi-word stress: @p total items through @p depth
 * slots. Pauses on each side force every branch of the cached-view
 * refresh: once per sixth of the items the consumer stops until the
 * producer has been rejected on a full ring, and the producer stops
 * until the consumer has found the ring empty. The pauses sit half a
 * period apart and the ring holds fewer than half a period, so the
 * two never wait on each other.
 */
void
stressMultiWordPayload(std::size_t depth, std::uint64_t total)
{
    struct Payload
    {
        std::uint64_t seq;
        std::uint64_t a, b, c;
    };
    SpscRing<Payload> ring(depth);
    const std::uint64_t pauseEvery = total / 6;
    ASSERT_GT(pauseEvery / 2, ring.capacity());

    std::atomic<std::uint64_t> emptyPops{0}; // consumer-side count
    std::uint64_t attempts = 0; // producer-side push-call count
    std::thread producer([&]() {
        RoleGuard produce(ring.producerRole); // this thread: producer
        std::uint64_t i = 0;
        while (i < total) {
            // Bursts of 1..8 pushes, then give the consumer a window.
            const std::uint64_t burst = 1 + (mix64(i) & 7);
            for (std::uint64_t k = 0; k < burst && i < total;) {
                const Payload p{i, mix64(i), mix64(i ^ 0xabcdef),
                                ~i};
                ++attempts;
                if (!ring.tryPush(p))
                    continue;
                ++i;
                ++k;
                if (i % pauseEvery == 0 && i < total) {
                    const std::uint64_t seen = emptyPops.load();
                    while (emptyPops.load() == seen)
                        std::this_thread::yield();
                }
            }
            std::this_thread::yield();
        }
    });

    RoleGuard consume(ring.consumerRole); // main thread: consumer
    std::uint64_t expect = 0;
    while (expect < total) {
        Payload v;
        if (!ring.tryPop(v)) {
            emptyPops.fetch_add(1);
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(v.seq, expect);
        ASSERT_EQ(v.a, mix64(expect));
        ASSERT_EQ(v.b, mix64(expect ^ 0xabcdef));
        ASSERT_EQ(v.c, ~expect);
        ++expect;
        if (expect % pauseEvery == pauseEvery / 2 &&
            total - expect > ring.capacity()) {
            const std::uint64_t seen = ring.totalRejects();
            while (ring.totalRejects() == seen)
                std::this_thread::yield();
        }
    }
    producer.join();

    // Cumulative accounting reconciles exactly once both sides
    // quiesce. Conservation laws: every push call either entered the
    // ring or was rejected (attempts = pushes + rejects), and with
    // the ring drained every accepted element left it (pops = pushes).
    EXPECT_EQ(ring.totalPushes(), total);
    EXPECT_EQ(ring.totalPops(), total);
    EXPECT_EQ(ring.totalPushes() + ring.totalRejects(), attempts);
    EXPECT_EQ(ring.totalPops(), ring.totalPushes());
    // Both sides confirmed a full / empty ring on refresh, and went
    // on after it: the refresh found room / items again.
    EXPECT_GT(ring.totalRejects(), 0u);
    EXPECT_GT(emptyPops.load(), 0u);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, ThreadedStressMultiWordPayload)
{
    // Heavier cross-thread exercise of the release/acquire edges
    // documented in spsc_ring.hh: a multi-word payload would tear if
    // a slot were visible before fully written (edge 1) or recycled
    // before fully read (edge 2). Bursty pacing (derived from mix64,
    // so deterministic) forces frequent full/empty transitions, the
    // regime where stale-index bugs surface. Eight slots carry the
    // long run. Two slots refresh the cached view on nearly every
    // call, so a sixteenth of the items exercises that as often (and
    // every item is a thread handoff, slow when the CPUs are
    // oversubscribed); 256 slots let the cached view run far behind
    // the live index between refreshes. Run under
    // KMU_SANITIZE=thread this doubles as the TSan proof for the
    // ring.
    const std::pair<std::size_t, std::uint64_t> runs[] = {
        {8, 100000}, {2, 6000}, {256, 100000}};
    for (const auto &[depth, total] : runs) {
        SCOPED_TRACE(testing::Message() << "depth " << depth);
        stressMultiWordPayload(depth, total);
    }
}

TEST(SpscRingTest, PopAfterEmptyPopSeesInterveningPush)
{
    SpscRing<int> ring(4);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    int out = -1;
    // Several rounds, so the indices wrap and each round's empty pop
    // leaves a cached head the next push makes stale.
    for (int round = 0; round < 6; ++round) {
        EXPECT_FALSE(ring.tryPop(out));
        ASSERT_TRUE(ring.tryPush(round));
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, round);
    }
    // A refresh picks up everything pushed since, not just one item.
    EXPECT_FALSE(ring.tryPop(out));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.tryPush(10 + i));
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, 10 + i);
    }
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_EQ(ring.totalPops(), ring.totalPushes());
}

TEST(SpscRingTest, PushAfterRejectedPushSeesInterveningPop)
{
    SpscRing<int> ring(4); // capacity 3
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    int next = 0;
    int out = -1;
    std::uint64_t rejected = 0;
    for (int round = 0; round < 6; ++round) {
        while (ring.tryPush(next))
            next++;
        rejected++; // exactly the call that found the ring full
        EXPECT_EQ(ring.totalRejects(), rejected);
        // Free one slot: the next push must see it, not the cached
        // full view, and must not count as a reject.
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_TRUE(ring.tryPush(next++));
        EXPECT_EQ(ring.totalRejects(), rejected);
    }
    EXPECT_EQ(ring.totalPushes(), std::uint64_t(next));
    // Attempts conserve: pushes + rejects = push calls made.
    EXPECT_EQ(ring.totalPushes() + ring.totalRejects(),
              std::uint64_t(next) + rejected);
}

TEST(SpscRingTest, RejectCounterCountsFullPushes)
{
    SpscRing<int> ring(4); // capacity 3
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.tryPush(i));
    EXPECT_EQ(ring.totalRejects(), 0u);
    EXPECT_FALSE(ring.tryPush(3));
    EXPECT_FALSE(ring.tryPush(4));
    EXPECT_EQ(ring.totalRejects(), 2u);
    // A rejected push leaves the ring contents untouched.
    int out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(ring.tryPush(3)); // room again: accepted, no reject
    EXPECT_EQ(ring.totalRejects(), 2u);
    EXPECT_EQ(ring.totalPushes(), 4u);
}

} // anonymous namespace
} // namespace kmu
