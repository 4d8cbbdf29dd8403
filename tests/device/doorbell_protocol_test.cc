/**
 * @file
 * The doorbell-request protocol on both device stacks: the timing
 * model's RequestFetcher on an EventQueue and the real runtime's
 * EmulatedDevice in manual-pump mode run the same checks, with the
 * test as the host.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/units.hh"
#include "device/emulated_device.hh"
#include "device/request_fetcher.hh"

namespace kmu
{
namespace
{

enum class Stack
{
    Model,  //!< RequestFetcher on an EventQueue
    Runtime //!< EmulatedDevice, manual pump
};

/** One device stack behind a queue pair, driven by the test as the
 *  host. */
class Harness
{
  public:
    explicit Harness(Stack s) : stack(s)
    {
        if (stack == Stack::Model) {
            DeviceParams params;
            params.latency = microseconds(1);
            fetcher = std::make_unique<RequestFetcher>(
                "fetch0", eq, 0, params, modelQp, link, nanoseconds(60),
                [](const CompletionDescriptor &) {}, &root);
        } else {
            device = std::make_unique<EmulatedDevice>(
                std::vector<std::uint8_t>(64 * 1024),
                EmulatedDevice::Config{.queueDepth = 64,
                                       .manual = true});
            device->addQueuePair();
            device->start();
        }
    }

    SwQueuePair &
    qp()
    {
        return stack == Stack::Model ? modelQp : device->queuePair(0);
    }

    /** Submit @p n reads the way both hosts do: ring only when the
     *  device has requested a doorbell. */
    void
    submit(std::size_t n)
    {
        RoleGuard host(qp().hostRole);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr buf =
                reinterpret_cast<std::uintptr_t>(&buffers[next % 64][0]);
            ASSERT_TRUE(qp().submit(
                RequestDescriptor::read((next % 64) * 64, buf)));
            ++next;
            if (qp().consumeDoorbellRequest())
                doorbell();
        }
    }

    /** Ring the doorbell whether or not the device asked for it. */
    void
    doorbell()
    {
        ++doorbells;
        if (stack == Stack::Model)
            fetcher->ringDoorbell();
        else
            device->doorbell(0);
    }

    /** Run the device until it is idle; reap every completion. */
    void
    settle()
    {
        if (stack == Stack::Model) {
            eq.run();
        } else {
            for (int pass = 0; pass < 32; ++pass) {
                if (!qp().fetcherParked())
                    ++runtimeFetches;
                device->pump();
            }
        }
        RoleGuard host(qp().hostRole);
        CompletionDescriptor c;
        while (qp().reapCompletion(c))
            ++completions;
    }

    /** Burst reads the model issued, or pump passes the runtime
     *  device began unparked (one fetch each). */
    std::uint64_t
    fetches() const
    {
        return stack == Stack::Model ? fetcher->burstReads.value()
                                     : runtimeFetches;
    }

    std::uint64_t doorbells = 0;
    std::uint64_t completions = 0;

  private:
    Stack stack;

    EventQueue eq;
    StatGroup root{"root"};
    PcieLink link{"pcie", eq, PcieLinkParams{}, &root};
    SwQueuePair modelQp{64};
    std::unique_ptr<RequestFetcher> fetcher;

    std::unique_ptr<EmulatedDevice> device;
    std::uint64_t runtimeFetches = 0;

    alignas(cacheLineSize) std::uint8_t buffers[64][cacheLineSize] = {};
    std::uint64_t next = 0;
};

class DoorbellProtocolTest : public ::testing::TestWithParam<Stack>
{
};

TEST_P(DoorbellProtocolTest, StartsParkedWithFlagSet)
{
    Harness h(GetParam());
    EXPECT_TRUE(h.qp().fetcherParked());
    EXPECT_TRUE(h.qp().doorbellRequested());
    h.settle();
    EXPECT_EQ(h.fetches(), 0u) << "fetched without a doorbell";
}

TEST_P(DoorbellProtocolTest, ReparksWithFlagSetAfterDraining)
{
    Harness h(GetParam());
    h.submit(3);
    EXPECT_FALSE(h.qp().doorbellRequested()) << "host consumed the flag";
    h.settle();
    EXPECT_EQ(h.completions, 3u);
    EXPECT_EQ(h.qp().pendingRequests(), 0u);
    EXPECT_TRUE(h.qp().fetcherParked());
    EXPECT_TRUE(h.qp().doorbellRequested());
}

TEST_P(DoorbellProtocolTest, OneDoorbellPerRoundNothingStranded)
{
    Harness h(GetParam());
    for (std::uint64_t round = 1; round <= 8; ++round) {
        h.submit(4);
        h.settle();
        EXPECT_EQ(h.doorbells, round) << "round " << round;
        EXPECT_EQ(h.completions, 4 * round) << "round " << round;
        EXPECT_EQ(h.qp().pendingRequests(), 0u) << "stranded requests";
        EXPECT_TRUE(h.qp().fetcherParked());
        EXPECT_TRUE(h.qp().doorbellRequested());
    }
}

TEST_P(DoorbellProtocolTest, DoorbellToFetchingDeviceStartsNoSecondFetch)
{
    Harness once(GetParam());
    once.submit(2);
    once.settle();

    Harness twice(GetParam());
    twice.submit(2);
    twice.doorbell(); // redundant: the first ring already woke it
    twice.settle();

    EXPECT_EQ(twice.doorbells, 2u);
    EXPECT_EQ(twice.completions, 2u);
    EXPECT_EQ(twice.fetches(), once.fetches());
    EXPECT_TRUE(twice.qp().fetcherParked());
    EXPECT_TRUE(twice.qp().doorbellRequested());
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, DoorbellProtocolTest,
    ::testing::Values(Stack::Model, Stack::Runtime),
    [](const ::testing::TestParamInfo<Stack> &info) {
        return info.param == Stack::Model ? "Model" : "Runtime";
    });

} // anonymous namespace
} // namespace kmu
