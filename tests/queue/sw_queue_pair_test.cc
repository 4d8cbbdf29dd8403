/**
 * @file
 * Protocol tests for the request/completion queue pair.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_annotations.hh"
#include "queue/sw_queue_pair.hh"

namespace kmu
{
namespace
{

TEST(SwQueuePairTest, SubmitAndFetchBurst)
{
    SwQueuePair qp(64);
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard host(qp.hostRole);
    RoleGuard device(qp.deviceRole);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_TRUE(qp.submit({i * 64, i}));
    EXPECT_EQ(qp.pendingRequests(), 5u);

    std::vector<RequestDescriptor> burst;
    EXPECT_EQ(qp.fetchBurst(burst), 5u);
    EXPECT_EQ(burst[3].deviceAddr, 3u * 64);
    EXPECT_EQ(burst[3].hostAddr, 3u);
    EXPECT_EQ(qp.pendingRequests(), 0u);
}

TEST(SwQueuePairTest, BurstCapsAtEight)
{
    SwQueuePair qp(64);
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard host(qp.hostRole);
    RoleGuard device(qp.deviceRole);
    for (std::uint64_t i = 0; i < 12; ++i)
        qp.submit({i, i});
    std::vector<RequestDescriptor> burst;
    EXPECT_EQ(qp.fetchBurst(burst), descriptorBurst);
    EXPECT_EQ(burst.size(), 8u);
    burst.clear();
    EXPECT_EQ(qp.fetchBurst(burst), 4u);
}

TEST(SwQueuePairTest, DoorbellStartsRequested)
{
    SwQueuePair qp(16);
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard host(qp.hostRole);
    RoleGuard device(qp.deviceRole);
    EXPECT_TRUE(qp.doorbellRequested());
    EXPECT_TRUE(qp.consumeDoorbellRequest());
    // Consumed: second check fails until the device re-requests.
    EXPECT_FALSE(qp.consumeDoorbellRequest());
    std::vector<RequestDescriptor> burst;
    EXPECT_EQ(qp.park(burst), 0u);
    EXPECT_TRUE(qp.doorbellRequested());
    EXPECT_TRUE(qp.consumeDoorbellRequest());
}

TEST(SwQueuePairTest, FetcherStartsParkedAndDoorbellWakesIt)
{
    SwQueuePair qp(16);
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard device(qp.deviceRole);
    EXPECT_TRUE(qp.fetcherParked());
    qp.doorbellArrived();
    EXPECT_FALSE(qp.fetcherParked());
    std::vector<RequestDescriptor> burst;
    EXPECT_EQ(qp.park(burst), 0u);
    EXPECT_TRUE(qp.fetcherParked());
    qp.doorbellArrived();
    // The flagless park leaves the doorbell-request flag alone.
    RoleGuard host(qp.hostRole);
    EXPECT_TRUE(qp.consumeDoorbellRequest());
    qp.parkWithoutFlag();
    EXPECT_TRUE(qp.fetcherParked());
    EXPECT_FALSE(qp.doorbellRequested());
}

// The race the park step closes: a request lands after the fetcher's
// empty burst but before its park step, and its submitter skips the
// doorbell because the flag is still clear. The park step's re-fetch
// must hand that request back and leave the fetcher running; parking
// would strand it.
TEST(SwQueuePairTest, ParkStepReturnsRacedSubmission)
{
    SwQueuePair qp(16);
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard host(qp.hostRole);
    RoleGuard device(qp.deviceRole);
    ASSERT_TRUE(qp.consumeDoorbellRequest());
    qp.doorbellArrived();
    std::vector<RequestDescriptor> burst;
    ASSERT_EQ(qp.fetchBurst(burst), 0u); // the empty burst
    ASSERT_TRUE(qp.submit({64, 7}));     // the raced submission...
    EXPECT_FALSE(qp.consumeDoorbellRequest()); // ...rings no doorbell
    ASSERT_EQ(qp.park(burst), 1u);
    EXPECT_EQ(burst[0].hostAddr, 7u);
    EXPECT_FALSE(qp.fetcherParked());
    EXPECT_EQ(qp.pendingRequests(), 0u);
}

TEST(SwQueuePairTest, CompletionFlow)
{
    SwQueuePair qp(16);
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard host(qp.hostRole);
    RoleGuard device(qp.deviceRole);
    EXPECT_TRUE(qp.postCompletion({0xabc}));
    EXPECT_TRUE(qp.postCompletion({0xdef}));
    EXPECT_EQ(qp.pendingCompletions(), 2u);

    CompletionDescriptor c;
    EXPECT_TRUE(qp.reapCompletion(c));
    EXPECT_EQ(c.hostAddr, 0xabcu);
    EXPECT_TRUE(qp.reapCompletion(c));
    EXPECT_EQ(c.hostAddr, 0xdefu);
    EXPECT_FALSE(qp.reapCompletion(c));
}

TEST(SwQueuePairTest, SubmitFailsWhenFull)
{
    SwQueuePair qp(4); // capacity 3
    // Single-threaded driver: embodies both queue-pair roles.
    RoleGuard host(qp.hostRole);
    RoleGuard device(qp.deviceRole);
    EXPECT_TRUE(qp.submit({1, 1}));
    EXPECT_TRUE(qp.submit({2, 2}));
    EXPECT_TRUE(qp.submit({3, 3}));
    EXPECT_FALSE(qp.submit({4, 4}));
}

TEST(SwQueuePairTest, DescriptorWireFormat)
{
    // The 16-byte layout is part of the device-visible ABI.
    RequestDescriptor d{0x1122334455667788ull, 0x99aabbccddeeff00ull};
    EXPECT_EQ(sizeof(d), 16u);
    auto *bytes = reinterpret_cast<const std::uint8_t *>(&d);
    // Little-endian x86: first field serializes first.
    EXPECT_EQ(bytes[0], 0x88);
    EXPECT_EQ(bytes[8], 0x00);
}

} // anonymous namespace
} // namespace kmu
