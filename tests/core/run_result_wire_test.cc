/**
 * @file
 * The RunResult wire format must round-trip every field bit-exactly
 * and reject anything that is not a well-formed current-version
 * frame — the parallel sweep's determinism rests on both.
 */

#include <gtest/gtest.h>

#include "core/run_result_wire.hh"

using namespace kmu;

namespace
{

RunResult
sampleResult()
{
    RunResult r;
    r.elapsed = 123456789;
    r.iterations = 0xdeadbeefcafe;
    r.workInstrs = 987654321;
    r.accesses = 424242;
    r.writes = 1717;
    // Doubles with no short decimal representation: a text-based
    // format would lose bits here.
    r.workIpc = 1.0 / 3.0;
    r.accessesPerUs = 2.0 / 7.0;
    r.meanReadLatencyNs = 1e3 + 1e-9;
    r.toHostWireGBs = 3.9999999999999996;
    r.toHostUsefulGBs = 0.1;
    r.toDeviceWireGBs = 5e-324; // smallest subnormal
    r.chipQueuePeak = 14;
    r.prefetchesQueued = 31337;
    r.replayMisses = 3;
    r.l1Hits = 1u << 20;
    r.l1Misses = 255;
    r.shardCount = 4;
    r.shardRequestsMin = 0xabcd0123;
    r.shardRequestsMax = 0xabcd9876;
    r.serveOffered = 100000;
    r.serveCompleted = 99998;
    r.serveSloMet = 97531;
    r.serveInFlightPeak = 48;
    r.serveP50Ns = 4096.5;
    r.serveP99Ns = 1.0e5 / 3.0;
    r.serveP999Ns = 7.0e5 / 11.0;
    r.serveMeanLatencyNs = 5432.1;
    r.serveGoodputPerUs = 13.0 / 9.0;
    for (std::size_t i = 0; i < r.serveLatencyBuckets.size(); ++i)
        r.serveLatencyBuckets[i] = i * i + 1;
    r.serveLatencyUnderflow = 2;
    r.serveLatencyOverflow = 3;
    r.kernelEvents = 987654321;
    r.kernelWallSeconds = 0.125 + 1.0 / 3.0;
    return r;
}

} // anonymous namespace

TEST(RunResultWire, RoundTripIsBitExact)
{
    const RunResult in = sampleResult();
    const std::vector<std::uint8_t> wire = serializeRunResult(in);
    ASSERT_EQ(wire.size(), runResultWireBytes);

    RunResult out;
    ASSERT_TRUE(deserializeRunResult(wire.data(), wire.size(), out));

    // Serializing the decoded struct must reproduce the exact bytes:
    // this compares every field, doubles by bit pattern.
    EXPECT_EQ(serializeRunResult(out), wire);

    EXPECT_EQ(out.elapsed, in.elapsed);
    EXPECT_EQ(out.iterations, in.iterations);
    EXPECT_EQ(out.workInstrs, in.workInstrs);
    EXPECT_EQ(out.accesses, in.accesses);
    EXPECT_EQ(out.writes, in.writes);
    EXPECT_EQ(out.workIpc, in.workIpc);
    EXPECT_EQ(out.accessesPerUs, in.accessesPerUs);
    EXPECT_EQ(out.meanReadLatencyNs, in.meanReadLatencyNs);
    EXPECT_EQ(out.toHostWireGBs, in.toHostWireGBs);
    EXPECT_EQ(out.toHostUsefulGBs, in.toHostUsefulGBs);
    EXPECT_EQ(out.toDeviceWireGBs, in.toDeviceWireGBs);
    EXPECT_EQ(out.chipQueuePeak, in.chipQueuePeak);
    EXPECT_EQ(out.prefetchesQueued, in.prefetchesQueued);
    EXPECT_EQ(out.replayMisses, in.replayMisses);
    EXPECT_EQ(out.l1Hits, in.l1Hits);
    EXPECT_EQ(out.l1Misses, in.l1Misses);
    EXPECT_EQ(out.shardCount, in.shardCount);
    EXPECT_EQ(out.shardRequestsMin, in.shardRequestsMin);
    EXPECT_EQ(out.shardRequestsMax, in.shardRequestsMax);
    EXPECT_EQ(out.serveOffered, in.serveOffered);
    EXPECT_EQ(out.serveCompleted, in.serveCompleted);
    EXPECT_EQ(out.serveSloMet, in.serveSloMet);
    EXPECT_EQ(out.serveInFlightPeak, in.serveInFlightPeak);
    EXPECT_EQ(out.serveP50Ns, in.serveP50Ns);
    EXPECT_EQ(out.serveP99Ns, in.serveP99Ns);
    EXPECT_EQ(out.serveP999Ns, in.serveP999Ns);
    EXPECT_EQ(out.serveMeanLatencyNs, in.serveMeanLatencyNs);
    EXPECT_EQ(out.serveGoodputPerUs, in.serveGoodputPerUs);
    EXPECT_EQ(out.serveLatencyBuckets, in.serveLatencyBuckets);
    EXPECT_EQ(out.serveLatencyUnderflow, in.serveLatencyUnderflow);
    EXPECT_EQ(out.serveLatencyOverflow, in.serveLatencyOverflow);
    EXPECT_EQ(out.kernelEvents, in.kernelEvents);
    // Host timing is deliberately NOT on the wire: the serialized
    // result must be a pure function of the configuration (the
    // determinism gates byte-compare it), so the decoder leaves the
    // wall-seconds field at its default.
    EXPECT_EQ(out.kernelWallSeconds, 0.0);
}

TEST(RunResultWire, WireExcludesHostTiming)
{
    RunResult a = sampleResult();
    RunResult b = sampleResult();
    a.kernelWallSeconds = 0.25;
    b.kernelWallSeconds = 123.456;
    EXPECT_EQ(serializeRunResult(a), serializeRunResult(b));
}

TEST(RunResultWire, DefaultConstructedRoundTrips)
{
    const RunResult in;
    const auto wire = serializeRunResult(in);
    RunResult out = sampleResult();
    ASSERT_TRUE(deserializeRunResult(wire.data(), wire.size(), out));
    EXPECT_EQ(serializeRunResult(out), wire);
}

TEST(RunResultWire, RejectsBadMagic)
{
    auto wire = serializeRunResult(sampleResult());
    wire[0] ^= 0xff;
    RunResult out;
    out.iterations = 7;
    EXPECT_FALSE(deserializeRunResult(wire.data(), wire.size(), out));
    EXPECT_EQ(out.iterations, 7u); // untouched on failure
}

TEST(RunResultWire, RejectsVersionMismatch)
{
    auto wire = serializeRunResult(sampleResult());
    wire[4] = std::uint8_t(runResultWireVersion + 1);
    RunResult out;
    EXPECT_FALSE(deserializeRunResult(wire.data(), wire.size(), out));
}

TEST(RunResultWire, RejectsNonzeroReservedWord)
{
    // The reserved words sit after the magic/version word and the 19
    // base fields; setting any one of their bytes rejects the frame.
    const auto wire = serializeRunResult(sampleResult());
    constexpr std::size_t first = 8 + 19 * 8;
    for (const std::size_t i :
         {std::size_t(0), std::size_t(13),
          runResultWireReservedWords * 8 - 1}) {
        auto bad = wire;
        bad[first + i] = 0x01;
        RunResult out;
        out.iterations = 7;
        EXPECT_FALSE(deserializeRunResult(bad.data(), bad.size(), out))
            << "reserved byte " << i;
        EXPECT_EQ(out.iterations, 7u); // untouched on failure
    }
}

TEST(RunResultWire, RejectsWrongSize)
{
    const auto wire = serializeRunResult(sampleResult());
    RunResult out;
    EXPECT_FALSE(
        deserializeRunResult(wire.data(), wire.size() - 1, out));
    EXPECT_FALSE(deserializeRunResult(wire.data(), 0, out));

    std::vector<std::uint8_t> longer = wire;
    longer.push_back(0);
    EXPECT_FALSE(
        deserializeRunResult(longer.data(), longer.size(), out));
}
