/**
 * @file
 * Tests for the three access engines behind the unified API, plus
 * the Runtime façade.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "access/on_demand_engine.hh"
#include "access/prefetch_engine.hh"
#include "access/runtime.hh"
#include "access/sw_queue_engine.hh"
#include "common/random.hh"

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

class EngineParamTest : public ::testing::TestWithParam<Mechanism>
{
};

TEST_P(EngineParamTest, Read64ReturnsImageContents)
{
    Runtime rt(patternImage(64 * 1024),
               {.mechanism = GetParam(),
                .deviceLatency = std::chrono::nanoseconds(200)});
    bool ok = true;
    rt.spawnWorker([&](AccessEngine &dev) {
        for (Addr a = 0; a < 4096; a += 8)
            ok &= dev.read64(a) == mix64(a);
    });
    rt.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(rt.engine().accesses(), 4096u / 8);
}

TEST_P(EngineParamTest, ReadBatchReturnsAllWords)
{
    Runtime rt(patternImage(64 * 1024),
               {.mechanism = GetParam(),
                .deviceLatency = std::chrono::nanoseconds(200)});
    bool ok = true;
    rt.spawnWorker([&](AccessEngine &dev) {
        Addr addrs[4];
        std::uint64_t vals[4];
        for (int i = 0; i < 64; ++i) {
            for (int b = 0; b < 4; ++b)
                addrs[b] = Addr(i * 4 + b) * 128 + 8 * b;
            dev.readBatch(addrs, 4, vals);
            for (int b = 0; b < 4; ++b)
                ok &= vals[b] == mix64(addrs[b]);
        }
    });
    rt.run();
    EXPECT_TRUE(ok);
}

TEST_P(EngineParamTest, ReadLinesCopiesFullLines)
{
    auto image = patternImage(64 * 1024);
    Runtime rt(image, {.mechanism = GetParam(),
                       .deviceLatency = std::chrono::nanoseconds(200)});
    bool ok = true;
    rt.spawnWorker([&](AccessEngine &dev) {
        alignas(64) std::uint8_t buf[2 * 64];
        Addr addrs[2] = {512, 4096};
        dev.readLines(addrs, 2, buf);
        ok &= std::memcmp(buf, image.data() + 512, 64) == 0;
        ok &= std::memcmp(buf + 64, image.data() + 4096, 64) == 0;
    });
    rt.run();
    EXPECT_TRUE(ok);
}

TEST_P(EngineParamTest, ManyWorkersInterleaveSafely)
{
    Runtime rt(patternImage(1 << 20),
               {.mechanism = GetParam(),
                .deviceLatency = std::chrono::nanoseconds(100)});
    constexpr int workers = 16;
    constexpr int reads = 200;
    std::uint64_t sums[workers] = {};
    for (int w = 0; w < workers; ++w) {
        rt.spawnWorker([&sums, w](AccessEngine &dev) {
            for (int i = 0; i < reads; ++i) {
                const Addr a = (Addr(w) * reads + i) * 64;
                sums[w] += dev.read64(a);
            }
        });
    }
    rt.run();
    for (int w = 0; w < workers; ++w) {
        std::uint64_t expect = 0;
        for (int i = 0; i < reads; ++i)
            expect += mix64((Addr(w) * reads + i) * 64);
        EXPECT_EQ(sums[w], expect) << "worker " << w;
    }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, EngineParamTest,
                         ::testing::Values(Mechanism::OnDemand,
                                           Mechanism::Prefetch,
                                           Mechanism::SwQueue),
                         [](const auto &info) {
                             return std::string(
                                 mechanismName(info.param) ==
                                         std::string("on-demand")
                                     ? "OnDemand"
                                     : mechanismName(info.param) ==
                                               std::string("prefetch")
                                           ? "Prefetch"
                                           : "SwQueue");
                         });

TEST(PrefetchEngineTest, YieldsOncePerCall)
{
    Scheduler sched;
    auto image = patternImage(8192);
    PrefetchEngine engine(image.data(), image.size(), sched);
    sched.spawn([&]() {
        engine.read64(0);
        Addr addrs[3] = {64, 128, 192};
        std::uint64_t vals[3];
        engine.readBatch(addrs, 3, vals);
    });
    sched.run();
    EXPECT_EQ(engine.yields(), 2u); // one per call, not per address
    EXPECT_EQ(engine.accesses(), 4u);
}

TEST(SwQueueEngineTest, DoorbellOnlyWhenRequested)
{
    Runtime rt(patternImage(64 * 1024),
               {.mechanism = Mechanism::SwQueue,
                .deviceLatency = std::chrono::nanoseconds(5000)});
    for (int w = 0; w < 8; ++w) {
        rt.spawnWorker([](AccessEngine &dev) {
            for (int i = 0; i < 50; ++i)
                dev.read64(Addr(i) * 64);
        });
    }
    rt.run();
    auto &engine = static_cast<SwQueueEngine &>(rt.engine());
    EXPECT_EQ(engine.completionsReaped(), 8u * 50);
    // With 8 workers keeping the fetcher busy, far fewer doorbells
    // than submissions are needed.
    EXPECT_LT(engine.doorbellsRung(), 8u * 50 / 2);
    EXPECT_GE(engine.doorbellsRung(), 1u);
}

// A device thread the OS keeps off the CPU is slow, not lossy: the
// watchdog must not re-issue (let alone exhaust the retry budget)
// while the service thread has not run. Here the device starts only
// after the host has spun on its completion queue for 100 ms, which
// is hundreds of watchdog deadlines of idle polling.
TEST(SwQueueEngineTest, StarvedDeviceThreadIsNotReissued)
{
    auto image = patternImage(64 * 1024);
    EmulatedDevice dev(image, {.latency = std::chrono::nanoseconds(200),
                               .queueDepth = 64});
    const std::size_t pair = dev.addQueuePair();
    Scheduler sched;
    SwQueueEngine engine(sched, dev, pair);
    std::uint64_t value = 0;
    sched.spawn([&]() { value = engine.read64(64 * 7); });
    std::thread late([&dev]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        dev.start();
    });
    sched.run();
    late.join();
    dev.stop();

    EXPECT_EQ(value, mix64(64 * 7));
    EXPECT_GT(engine.pollCalls(), 0u);
    EXPECT_EQ(engine.recovery().timeouts, 0u);
    EXPECT_EQ(engine.recovery().retries, 0u);
    EXPECT_EQ(dev.requestsServiced(), 1u);
}

TEST(OnDemandEngineTest, BoundsChecked)
{
    std::vector<std::uint8_t> image(4096);
    OnDemandEngine engine(image.data(), image.size());
    EXPECT_DEATH(engine.read64(4090), "out of bounds");
}

TEST(RuntimeTest, DeviceImageAccessorMatchesInput)
{
    auto image = patternImage(4096);
    Runtime rt(image, {.mechanism = Mechanism::SwQueue});
    EXPECT_EQ(std::memcmp(rt.deviceImage(), image.data(),
                          image.size()), 0);
    EXPECT_EQ(rt.deviceBytes(), image.size());
}

} // anonymous namespace
} // namespace kmu
