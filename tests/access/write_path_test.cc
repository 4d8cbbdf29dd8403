/**
 * @file
 * Tests for the write path (the paper's future work, implemented):
 * posted line writes and read-modify-write words across all three
 * real engines, plus the device-side write handling.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "access/runtime.hh"
#include "access/sw_queue_engine.hh"
#include "common/random.hh"

namespace kmu
{
namespace
{

std::vector<std::uint8_t>
zeroImage(std::size_t bytes)
{
    return std::vector<std::uint8_t>(bytes, 0);
}

void
fillLine(std::uint8_t *line, std::uint64_t seed)
{
    for (std::size_t i = 0; i < cacheLineSize; i += 8) {
        const std::uint64_t v = mix64(seed + i);
        std::memcpy(line + i, &v, 8);
    }
}

class WritePathTest : public ::testing::TestWithParam<Mechanism>
{
};

TEST_P(WritePathTest, WriteLineThenReadBack)
{
    Runtime rt(zeroImage(64 * 1024),
               {.mechanism = GetParam(),
                .deviceLatency = std::chrono::nanoseconds(300)});
    bool ok = true;
    rt.spawnWorker([&](AccessEngine &dev) {
        alignas(cacheLineSize) std::uint8_t line[cacheLineSize];
        alignas(cacheLineSize) std::uint8_t got[cacheLineSize];
        for (Addr a = 0; a < 32 * cacheLineSize;
             a += cacheLineSize) {
            fillLine(line, a);
            dev.writeLine(a, line);
            // Same-engine read-after-write must observe the data
            // (FIFO queue-pair ordering / plain store visibility).
            dev.readLines(&a, 1, got);
            ok &= std::memcmp(line, got, cacheLineSize) == 0;
        }
    });
    rt.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(rt.engine().writes(), 32u);
}

TEST_P(WritePathTest, Write64ReadModifyWrite)
{
    Runtime rt(zeroImage(16 * 1024),
               {.mechanism = GetParam(),
                .deviceLatency = std::chrono::nanoseconds(200)});
    bool ok = true;
    rt.spawnWorker([&](AccessEngine &dev) {
        // Two words in the same line: the second write must not
        // clobber the first (byte-merging correctness).
        dev.write64(128, 0x1111);
        dev.write64(136, 0x2222);
        ok &= dev.read64(128) == 0x1111;
        ok &= dev.read64(136) == 0x2222;
        // And the rest of the line stays zero.
        ok &= dev.read64(144) == 0;
    });
    rt.run();
    EXPECT_TRUE(ok);
}

TEST_P(WritePathTest, WritesVisibleInBackingStore)
{
    Runtime rt(zeroImage(8 * 1024),
               {.mechanism = GetParam(),
                .deviceLatency = std::chrono::nanoseconds(100)});
    alignas(cacheLineSize) std::uint8_t line[cacheLineSize];
    fillLine(line, 7);
    rt.spawnWorker([&](AccessEngine &dev) {
        dev.writeLine(512, line);
        // Read-back forces the posted write to be consumed before
        // the runtime shuts the device down.
        alignas(cacheLineSize) std::uint8_t got[cacheLineSize];
        Addr a = 512;
        dev.readLines(&a, 1, got);
    });
    rt.run();
    EXPECT_EQ(std::memcmp(rt.deviceImage() + 512, line,
                          cacheLineSize), 0);
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, WritePathTest,
                         ::testing::Values(Mechanism::OnDemand,
                                           Mechanism::Prefetch,
                                           Mechanism::SwQueue));

TEST(WritePathTest, PostedWritesDoNotBlockTheFiber)
{
    // With a long device latency, a burst of posted writes returns
    // quickly (bounded by staging-pool recycling, not by latency),
    // while the same number of reads would take ~n x latency.
    Runtime rt(zeroImage(1 << 20),
               {.mechanism = Mechanism::SwQueue,
                .deviceLatency = std::chrono::milliseconds(5)});
    alignas(cacheLineSize) std::uint8_t line[cacheLineSize] = {1};
    const auto start = std::chrono::steady_clock::now();
    rt.spawnWorker([&](AccessEngine &dev) {
        for (Addr a = 0; a < 16 * cacheLineSize; a += cacheLineSize)
            dev.writeLine(a, line);
        // No read-back: the runtime drains in-flight writes on stop.
    });
    rt.run();
    const auto elapsed =
        std::chrono::steady_clock::now() - start;
    // 16 blocking reads would need >= 80 ms; posted writes of one
    // staging-pool's worth must be far faster. The generous bound
    // keeps scheduler jitter on a busy box from flaking the test
    // while still catching writes that serialize on the latency.
    EXPECT_LT(elapsed, std::chrono::milliseconds(40));
    EXPECT_EQ(rt.engine().writes(), 16u);
}

TEST(WritePathTest, StagingPoolRecyclesUnderPressure)
{
    // Far more writes than staging slots: the engine must reap
    // write completions to recycle buffers, and every write must
    // land correctly.
    Runtime rt(zeroImage(1 << 20),
               {.mechanism = Mechanism::SwQueue,
                .deviceLatency = std::chrono::nanoseconds(500)});
    constexpr int writes = 500;
    rt.spawnWorker([&](AccessEngine &dev) {
        alignas(cacheLineSize) std::uint8_t line[cacheLineSize];
        for (int i = 0; i < writes; ++i) {
            const Addr a = Addr(i) * cacheLineSize;
            fillLine(line, a);
            dev.writeLine(a, line);
        }
        // One read forces ordering behind all prior writes.
        Addr last = Addr(writes - 1) * cacheLineSize;
        alignas(cacheLineSize) std::uint8_t got[cacheLineSize];
        dev.readLines(&last, 1, got);
    });
    rt.run();

    alignas(cacheLineSize) std::uint8_t expect[cacheLineSize];
    for (int i = 0; i < writes; ++i) {
        const Addr a = Addr(i) * cacheLineSize;
        fillLine(expect, a);
        ASSERT_EQ(std::memcmp(rt.deviceImage() + a, expect,
                              cacheLineSize), 0)
            << "write " << i << " lost or corrupted";
    }
    auto &engine = static_cast<SwQueueEngine &>(rt.engine());
    EXPECT_EQ(engine.writes(), std::uint64_t(writes));
}

TEST(WritePathTest, DescriptorOpcodeRoundTrip)
{
    const auto rd = RequestDescriptor::read(0x1000, 0xbeef);
    EXPECT_FALSE(rd.isWrite());
    EXPECT_EQ(rd.lineAddr(), 0x1000u);

    const auto wr = RequestDescriptor::write(0x1000, 0xbeef);
    EXPECT_TRUE(wr.isWrite());
    EXPECT_EQ(wr.lineAddr(), 0x1000u);
    EXPECT_EQ(wr.hostAddr, 0xbeefu);

    const auto again = wr.asReissue();
    EXPECT_TRUE(again.isReissue());
    EXPECT_FALSE(wr.isReissue());
    EXPECT_TRUE(again.isWrite());
    EXPECT_EQ(again.lineAddr(), 0x1000u);
    EXPECT_EQ(again.hostAddr, 0xbeefu);
}

} // anonymous namespace
} // namespace kmu
