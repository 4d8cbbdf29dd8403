/**
 * @file
 * Functional tests for the real-time software device.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "common/random.hh"
#include "common/thread_annotations.hh"
#include "device/emulated_device.hh"

namespace kmu
{
namespace
{

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

/** Submit, doorbell if requested, and spin until the completion. */
void
readLineBlocking(EmulatedDevice &dev, std::size_t pair, Addr device_addr,
                 void *host_buf, bool reissue = false)
{
    SwQueuePair &qp = dev.queuePair(pair);
    RoleGuard host(qp.hostRole); // test thread = host side
    RequestDescriptor desc;
    desc.deviceAddr = device_addr;
    desc.hostAddr = reinterpret_cast<std::uintptr_t>(host_buf);
    if (reissue)
        desc = desc.asReissue();
    ASSERT_TRUE(qp.submit(desc));
    if (qp.consumeDoorbellRequest())
        dev.doorbell(pair);
    CompletionDescriptor comp;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!qp.reapCompletion(comp)) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "completion never arrived";
    }
    ASSERT_EQ(comp.hostAddr, desc.hostAddr);
}

TEST(EmulatedDeviceTest, ReturnsCorrectData)
{
    auto image = patternImage(64 * 1024);
    EmulatedDevice dev(image, {.latency = std::chrono::nanoseconds(500),
                               .queueDepth = 64});
    const std::size_t pair = dev.addQueuePair();
    dev.start();

    alignas(64) std::uint8_t buf[64];
    for (Addr line = 0; line < 16 * 64; line += 64) {
        readLineBlocking(dev, pair, line, buf);
        EXPECT_EQ(std::memcmp(buf, image.data() + line, 64), 0)
            << "line " << line;
    }
    dev.stop();
    EXPECT_EQ(dev.requestsServiced(), 16u);
}

TEST(EmulatedDeviceTest, MultipleQueuePairs)
{
    auto image = patternImage(16 * 1024);
    EmulatedDevice dev(image, {.latency = std::chrono::nanoseconds(100),
                               .queueDepth = 32});
    const std::size_t p0 = dev.addQueuePair();
    const std::size_t p1 = dev.addQueuePair();
    dev.start();

    alignas(64) std::uint8_t buf0[64];
    alignas(64) std::uint8_t buf1[64];
    readLineBlocking(dev, p0, 0, buf0);
    readLineBlocking(dev, p1, 64, buf1);
    dev.stop();

    EXPECT_EQ(std::memcmp(buf0, image.data(), 64), 0);
    EXPECT_EQ(std::memcmp(buf1, image.data() + 64, 64), 0);
}

TEST(EmulatedDeviceTest, LatencyIsRoughlyHonored)
{
    auto image = patternImage(4096);
    const auto latency = std::chrono::microseconds(2);
    EmulatedDevice dev(image, {.latency = latency, .queueDepth = 32});
    const std::size_t pair = dev.addQueuePair();
    dev.start();

    alignas(64) std::uint8_t buf[64];
    const auto start = std::chrono::steady_clock::now();
    readLineBlocking(dev, pair, 0, buf);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    dev.stop();

    // Lower bound holds even on a loaded machine; no tight upper
    // bound (scheduling noise on shared CPUs).
    EXPECT_GE(elapsed, latency);
}

TEST(EmulatedDeviceTest, DrainsInFlightOnStop)
{
    auto image = patternImage(64 * 256);
    EmulatedDevice dev(image, {.latency = std::chrono::microseconds(50),
                               .queueDepth = 64});
    const std::size_t pair = dev.addQueuePair();
    SwQueuePair &qp = dev.queuePair(pair);
    RoleGuard host(qp.hostRole); // test thread = host side

    alignas(64) std::uint8_t bufs[8][64];
    for (std::uint64_t i = 0; i < 8; ++i) {
        RequestDescriptor desc;
        desc.deviceAddr = i * 64;
        desc.hostAddr = reinterpret_cast<std::uintptr_t>(&bufs[i][0]);
        ASSERT_TRUE(qp.submit(desc));
    }
    dev.start();
    if (qp.consumeDoorbellRequest())
        dev.doorbell(pair);
    // Give the fetch stage a moment, then stop: stop() must drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    dev.stop();

    EXPECT_EQ(dev.requestsServiced(), 8u);
    CompletionDescriptor comp;
    std::size_t reaped = 0;
    while (qp.reapCompletion(comp))
        reaped++;
    EXPECT_EQ(reaped, 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(std::memcmp(bufs[i], image.data() + i * 64, 64), 0);
}

TEST(EmulatedDeviceTest, ReplayCheckCountsSpurious)
{
    auto image = patternImage(64 * 64);
    EmulatedDevice dev(image, {.latency = std::chrono::nanoseconds(100),
                               .queueDepth = 32});
    const std::size_t pair = dev.addQueuePair();
    dev.enableReplayCheck(pair, {0, 64, 128}, 8);
    dev.start();

    alignas(64) std::uint8_t buf[64];
    readLineBlocking(dev, pair, 0, buf);
    readLineBlocking(dev, pair, 64, buf);
    readLineBlocking(dev, pair, 1024, buf); // not in the recording
    dev.stop();

    EXPECT_EQ(dev.replayMisses(), 1u);
}

// Watchdog re-issues are transport retries of an access already
// checked: they must neither miss nor consume the recording, while
// a plain repeat of a consumed address still counts as spurious.
TEST(EmulatedDeviceTest, ReplayCheckSkipsReissues)
{
    auto image = patternImage(64 * 64);
    EmulatedDevice dev(image, {.latency = std::chrono::nanoseconds(100),
                               .queueDepth = 32});
    const std::size_t pair = dev.addQueuePair();
    dev.enableReplayCheck(pair, {0, 64, 128}, 8);
    dev.start();

    alignas(64) std::uint8_t buf[64];
    readLineBlocking(dev, pair, 0, buf);
    readLineBlocking(dev, pair, 0, buf, /*reissue=*/true);
    readLineBlocking(dev, pair, 64, buf);
    readLineBlocking(dev, pair, 64, buf, /*reissue=*/true);
    readLineBlocking(dev, pair, 128, buf);
    EXPECT_EQ(dev.replayMisses(), 0u);
    EXPECT_EQ(std::memcmp(buf, image.data() + 128, 64), 0);

    readLineBlocking(dev, pair, 0, buf); // plain repeat, not recorded
    dev.stop();
    EXPECT_EQ(dev.replayMisses(), 1u);
    EXPECT_EQ(dev.requestsServiced(), 6u);
}

TEST(EmulatedDeviceTest, OutOfRangeReadPanics)
{
    auto image = patternImage(4096);
    EmulatedDevice dev(image, {.latency = std::chrono::nanoseconds(1),
                               .queueDepth = 16});
    const std::size_t pair = dev.addQueuePair();
    SwQueuePair &qp = dev.queuePair(pair);
    RoleGuard host(qp.hostRole); // test thread = host side
    alignas(64) std::uint8_t buf[64];
    RequestDescriptor desc;
    desc.deviceAddr = 1 << 20; // beyond the backing store
    desc.hostAddr = reinterpret_cast<std::uintptr_t>(buf);
    qp.submit(desc);
    EXPECT_DEATH(
        {
            dev.start();
            if (qp.consumeDoorbellRequest())
                dev.doorbell(pair);
            std::this_thread::sleep_for(std::chrono::seconds(2));
        },
        "beyond backing store");
}

} // anonymous namespace
} // namespace kmu
