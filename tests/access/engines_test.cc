/**
 * @file
 * Tests for the three access engines behind the unified API, the
 * Runtime façade, and Listing 1's dev_access().
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "access/dev_access.hh"
#include "access/mapped_engine.hh"
#include "access/runtime.hh"
#include "access/sw_queue_engine.hh"
#include "common/random.hh"
#include "trace/trace.hh"

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

/** Test-name suffix of a mechanism parameter. */
std::string
mechParamName(const ::testing::TestParamInfo<Mechanism> &info)
{
    switch (info.param) {
      case Mechanism::OnDemand:
        return "OnDemand";
      case Mechanism::Prefetch:
        return "Prefetch";
      case Mechanism::SwQueue:
        return "SwQueue";
    }
    return "Unknown";
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
                         mechParamName);

TEST(MappedEngineTest, YieldsOncePerCall)
{
    Scheduler sched;
    auto image = patternImage(8192);
    MappedEngine engine(Mechanism::Prefetch, image.data(), image.size(),
                        sched);
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
    SwQueueEngine engine(sched, dev, {pair}, topo::Interleave::CacheLine);
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

TEST(MappedEngineTest, BoundsChecked)
{
    Scheduler sched;
    std::vector<std::uint8_t> image(4096);
    MappedEngine engine(Mechanism::OnDemand, image.data(), image.size(),
                        sched);
    EXPECT_DEATH(engine.read64(4090), "out of bounds");
}

/** A governor that turns Degraded on its first retried sample and
 *  never recovers. */
fault::DegradationGovernor
degradedGovernor()
{
    fault::DegradationGovernor gov({.alpha = 1.0,
                                    .enterThreshold = 0.5,
                                    .exitThreshold = 0.0,
                                    .minSamples = 1});
    gov.sample(true);
    return gov;
}

/** Read entry points of the unified API, one call each. */
const std::vector<std::function<void(AccessEngine &)>> readCalls = {
    [](AccessEngine &e) { e.read64(8); },
    [](AccessEngine &e) {
        std::uint64_t v;
        EXPECT_EQ(e.tryRead64(16, v), AccessStatus::Ok);
    },
    [](AccessEngine &e) {
        const Addr addrs[3] = {64, 136, 1024};
        std::uint64_t vals[3];
        e.readBatch(addrs, 3, vals);
    },
    [](AccessEngine &e) {
        const Addr addrs[2] = {128, 4096};
        alignas(64) std::uint8_t buf[2 * 64];
        e.readLines(addrs, 2, buf);
    },
    [](AccessEngine &e) {
        const Addr addrs[2] = {192, 2048};
        alignas(64) std::uint8_t buf[2 * 64];
        EXPECT_EQ(e.tryReadLines(addrs, 2, buf), AccessStatus::Ok);
    },
};

/** On-demand and prefetch modes of the one memory-mapped engine. */
class MappedEngineParamTest : public ::testing::TestWithParam<Mechanism>
{
  protected:
    struct Round
    {
        std::vector<std::uint64_t> yields; //!< yields each call cost
        std::uint64_t degraded = 0;        //!< degradedAccesses after
    };

    /** One fiber calls every read entry point once (9 items). */
    Round
    readRound(fault::DegradationGovernor *gov)
    {
        Scheduler sched;
        auto image = patternImage(8192);
        MappedEngine engine(GetParam(), image.data(), image.size(), sched,
                            gov);
        Round round;
        sched.spawn([&]() {
            for (const auto &call : readCalls) {
                const std::uint64_t before = engine.yields();
                call(engine);
                round.yields.push_back(engine.yields() - before);
            }
        });
        sched.run();
        EXPECT_EQ(engine.accesses(), 9u);
        round.degraded = engine.recovery().degradedAccesses;
        return round;
    }
};

TEST_P(MappedEngineParamTest, YieldsOncePerPrefetchReadCall)
{
    const std::vector<std::uint64_t> once(
        readCalls.size(), GetParam() == Mechanism::Prefetch ? 1 : 0);
    fault::DegradationGovernor normal;
    EXPECT_EQ(readRound(nullptr).yields, once);
    EXPECT_EQ(readRound(&normal).yields, once);
    fault::DegradationGovernor degraded = degradedGovernor();
    ASSERT_TRUE(degraded.degraded());
    EXPECT_EQ(readRound(&degraded).yields,
              std::vector<std::uint64_t>(readCalls.size(), 0));
}

TEST_P(MappedEngineParamTest, OnlyDegradedPrefetchCountsDegradedReads)
{
    fault::DegradationGovernor normal;
    EXPECT_EQ(readRound(nullptr).degraded, 0u);
    EXPECT_EQ(readRound(&normal).degraded, 0u);
    fault::DegradationGovernor degraded = degradedGovernor();
    EXPECT_EQ(readRound(&degraded).degraded,
              GetParam() == Mechanism::Prefetch ? 9u : 0u);
}

TEST_P(MappedEngineParamTest, BatchReadOpensOneSpanOfItsLines)
{
    Scheduler sched;
    auto image = patternImage(8192);
    MappedEngine engine(GetParam(), image.data(), image.size(), sched);
    trace::TraceBuffer buf(256);
    trace::setSink(&buf);
    sched.spawn([&]() {
        readCalls[2](engine); // readBatch of 3 words
        readCalls[3](engine); // readLines of 2 lines
    });
    sched.run();
    trace::setSink(nullptr);

    std::vector<std::uint32_t> begins;
    std::size_t ends = 0;
    for (const trace::Record &r : buf.snapshot()) {
        if (r.kind != trace::Kind::AccessRead)
            continue;
        if (r.phase == trace::Phase::Begin)
            begins.push_back(r.arg);
        else if (r.phase == trace::Phase::End)
            ends++;
    }
    EXPECT_EQ(begins, (std::vector<std::uint32_t>{3, 2}));
    EXPECT_EQ(ends, 2u);
}

INSTANTIATE_TEST_SUITE_P(Mapped, MappedEngineParamTest,
                         ::testing::Values(Mechanism::OnDemand,
                                           Mechanism::Prefetch),
                         mechParamName);

class EngineDeathTest : public ::testing::TestWithParam<Mechanism>
{
};

// An address within a line of 2^64 must not wrap past the bounds
// check and read the bytes before the region.
TEST_P(EngineDeathTest, AddressNearTopOfSpaceIsOutOfBounds)
{
    const auto read_top = [mech = GetParam()] {
        Runtime rt(patternImage(4096),
                   {.mechanism = mech, .deterministicDevice = true});
        rt.spawnWorker([](AccessEngine &dev) { dev.read64(~Addr(0) - 7); });
        rt.run();
    };
    EXPECT_DEATH(read_top(), "out of bounds|beyond backing store");
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, EngineDeathTest,
                         ::testing::Values(Mechanism::OnDemand,
                                           Mechanism::Prefetch,
                                           Mechanism::SwQueue),
                         mechParamName);

// Listing 1 as adopters use it: every call prefetches, yields once,
// and loads, so fibers reading through it take turns word by word.
TEST(DevAccessTest, FibersReadImageWordsAndInterleave)
{
    constexpr int fibers = 4;
    constexpr int reads = 16;
    std::vector<std::uint64_t> image(fibers * reads);
    for (std::size_t w = 0; w < image.size(); ++w)
        image[w] = mix64(w * 8);
    Scheduler sched;
    std::vector<int> order;
    bool ok = true;
    for (int f = 0; f < fibers; ++f) {
        sched.spawn([&, f]() {
            for (int i = 0; i < reads; ++i) {
                const std::size_t w = std::size_t(i * fibers + f);
                ok &= dev_access(&image[w]) == mix64(w * 8);
                order.push_back(f);
            }
        });
    }
    sched.run();
    EXPECT_TRUE(ok);
    ASSERT_EQ(order.size(), std::size_t(fibers * reads));
    for (std::size_t k = 0; k < order.size(); ++k)
        EXPECT_EQ(order[k], int(k % fibers)) << "read " << k;
    // One yield per call: each fiber is dispatched once to start and
    // once more after every read.
    EXPECT_EQ(sched.switches(), std::uint64_t(fibers * (reads + 1)));
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
