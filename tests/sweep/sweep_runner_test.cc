/**
 * @file
 * SweepRunner contract: parallel execution returns exactly the
 * serial results by index, whatever the worker count and claim
 * order, payloads of any size cross intact, and a dying worker costs
 * recovery work for the point it claimed, never results.
 */

#include <gtest/gtest.h>

#include <chrono>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/random.hh"
#include "core/run_result_wire.hh"
#include "sweep/sweep_runner.hh"

using namespace kmu;
using sweep::SweepRunner;

namespace
{

/** A deterministic fake point: every field derived from the index. */
RunResult
makePoint(std::size_t i)
{
    RunResult r;
    r.elapsed = Tick(1000 + i);
    r.iterations = 10 * i + 1;
    r.workInstrs = i * i;
    r.accesses = i + 7;
    r.writes = i / 2;
    r.workIpc = 1.0 + double(i) / 3.0;
    r.accessesPerUs = double(i) / 7.0;
    r.meanReadLatencyNs = 1000.0 / double(i + 1);
    r.toHostWireGBs = double(i) * 0.3;
    r.toHostUsefulGBs = double(i) * 0.2;
    r.toDeviceWireGBs = double(i) * 0.1;
    r.chipQueuePeak = std::uint32_t(i % 48);
    r.prefetchesQueued = i * 3;
    r.replayMisses = i % 5;
    r.l1Hits = i * 11;
    r.l1Misses = i * 13;
    return r;
}

/** Field-complete, bit-exact equality via the wire encoding. */
void
expectSame(const std::vector<RunResult> &got, std::size_t count)
{
    ASSERT_EQ(got.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(serializeRunResult(got[i]),
                  serializeRunResult(makePoint(i)))
            << "result " << i << " not merged by index";
    }
}

} // anonymous namespace

TEST(SweepRunner, SerialPathReturnsSubmissionOrder)
{
    SweepRunner pool;
    SweepRunner::Stats stats;
    const auto got = pool.run(9, makePoint, 1, &stats);
    expectSame(got, 9);
    EXPECT_EQ(stats.points, 9u);
    EXPECT_EQ(stats.jobs, 1u);
    EXPECT_EQ(stats.workersDied, 0u);
    EXPECT_EQ(stats.pointsRecovered, 0u);
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly)
{
    if (!SweepRunner::forkSupported())
        GTEST_SKIP() << "no fork() on this platform";
    SweepRunner pool;
    SweepRunner::Stats stats;
    const auto got = pool.run(23, makePoint, 4, &stats);
    expectSame(got, 23);
    EXPECT_EQ(stats.jobs, 4u);
    EXPECT_EQ(stats.workersDied, 0u);
    EXPECT_GT(stats.serialSeconds, 0.0);
}

TEST(SweepRunner, MoreJobsThanPointsClampsCleanly)
{
    if (!SweepRunner::forkSupported())
        GTEST_SKIP() << "no fork() on this platform";
    SweepRunner pool;
    SweepRunner::Stats stats;
    const auto got = pool.run(3, makePoint, 16, &stats);
    expectSame(got, 3);
    EXPECT_LE(stats.jobs, 3u);
}

TEST(SweepRunner, ZeroPointsIsEmpty)
{
    SweepRunner pool;
    EXPECT_TRUE(pool.run(0, makePoint, 4).empty());
}

#ifdef __unix__
TEST(SweepRunner, WorkerDeathRecoversMissingPoints)
{
    if (!SweepRunner::forkSupported())
        GTEST_SKIP() << "no fork() on this platform";
    SweepRunner pool;
    SweepRunner::Stats stats;
    // Whichever worker claims index 1 dies on it. The other worker
    // keeps claiming, so only the claimed-but-unreported index is
    // left for the parent, which recomputes it in-process (where
    // inWorker() is false).
    const auto got = pool.run(
        8,
        [](std::size_t i) {
            if (i == 1 && SweepRunner::inWorker())
                ::_exit(3);
            return makePoint(i);
        },
        2, &stats);
    expectSame(got, 8);
    EXPECT_EQ(stats.workersDied, 1u);
    EXPECT_EQ(stats.pointsRecovered, 1u);
}

TEST(SweepRunner, EveryWorkerDyingOnItsFirstClaimLeavesAllToParent)
{
    if (!SweepRunner::forkSupported())
        GTEST_SKIP() << "no fork() on this platform";
    SweepRunner pool;
    SweepRunner::Stats stats;
    const auto got = pool.run(
        10,
        [](std::size_t i) {
            if (SweepRunner::inWorker())
                ::_exit(3);
            return makePoint(i);
        },
        4, &stats);
    expectSame(got, 10);
    EXPECT_EQ(stats.jobs, 4u);
    EXPECT_EQ(stats.workersDied, 4u);
    EXPECT_EQ(stats.pointsRecovered, 10u);
}
#endif

TEST(SweepRunner, SkewedSweepMergesBitExactly)
{
    if (!SweepRunner::forkSupported())
        GTEST_SKIP() << "no fork() on this platform";
    // The last quarter of the points busy-waits ~20x longer than the
    // rest, so the claim order differs from any static split.
    constexpr std::size_t count = 16;
    const auto busyPoint = [](std::size_t i) {
        const auto spin = std::chrono::microseconds(
            i >= count * 3 / 4 ? 10000 : 500);
        const auto t0 = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - t0 < spin) {
        }
        return makePoint(i);
    };
    SweepRunner pool;
    SweepRunner::Stats stats;
    const auto got = pool.run(count, busyPoint, 4, &stats);
    expectSame(got, count);
    EXPECT_EQ(stats.jobs, 4u);
    EXPECT_EQ(stats.workersDied, 0u);
    EXPECT_EQ(stats.pointsRecovered, 0u);
}

namespace
{

/** Payload of point @p i: @p size bytes derived from both. */
SweepRunner::Payload
payloadOf(std::size_t i, std::size_t size)
{
    SweepRunner::Payload bytes(size);
    for (std::size_t b = 0; b < size; ++b)
        bytes[b] = std::uint8_t(mix64(i * 1000003 + b));
    return bytes;
}

} // anonymous namespace

TEST(SweepRunner, PayloadsRoundTripAtEverySize)
{
    // 0 bytes, 1 byte, and more than a 64 KiB pipe buffer, so a
    // frame arrives in several reads.
    const std::size_t sizes[] = {0, 1, (std::size_t(1) << 16) * 3 + 7};
    const auto fn = [&sizes](std::size_t i) {
        return payloadOf(i, sizes[i % 3]);
    };
    for (unsigned jobs : {1u, 3u}) {
        SweepRunner pool;
        SweepRunner::Stats stats;
        const auto got = pool.runPayloads(9, fn, jobs, &stats);
        ASSERT_EQ(got.size(), 9u);
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], fn(i)) << "payload " << i << " jobs="
                                     << jobs;
        EXPECT_EQ(stats.workersDied, 0u);
        EXPECT_EQ(stats.pointsRecovered, 0u);
        EXPECT_EQ(stats.kernelEvents, 0u);
    }
}

#ifdef __unix__
TEST(SweepRunner, OversizedFrameIsACorruptStream)
{
    if (!SweepRunner::forkSupported())
        GTEST_SKIP() << "no fork() on this platform";
    // A worker frame declaring more than maxPayloadBytes is never
    // buffered: the parent drops the worker as corrupt and computes
    // the point itself, where no frame and so no cap is involved.
    const auto fn = [](std::size_t i) {
        return payloadOf(i, i == 2 ? SweepRunner::maxPayloadBytes + 1
                                   : 16);
    };
    SweepRunner pool;
    SweepRunner::Stats stats;
    const auto got = pool.runPayloads(4, fn, 2, &stats);
    ASSERT_EQ(got.size(), 4u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], fn(i)) << "payload " << i;
    EXPECT_EQ(stats.workersDied, 1u);
    EXPECT_EQ(stats.pointsRecovered, 1u);
}
#endif

TEST(SweepRunner, ArgvJobsTakesTheLastWellFormedValue)
{
    ::unsetenv("KMU_JOBS");
    char prog[] = "bench";
    char probe[] = "kmubench-setup-probe";
    char three[] = "jobs=3";
    char bad[] = "jobs=x";
    char *none[] = {prog, probe};
    EXPECT_EQ(SweepRunner::argvJobs(2, none), 1u);
    char *some[] = {prog, three, bad, probe};
    EXPECT_EQ(SweepRunner::argvJobs(4, some), 3u);

    unsigned jobs = 7;
    EXPECT_FALSE(SweepRunner::parseJobs("4097", jobs));
    EXPECT_FALSE(SweepRunner::parseJobs("", jobs));
    EXPECT_EQ(jobs, 7u);
    EXPECT_TRUE(SweepRunner::parseJobs("0", jobs));
    EXPECT_EQ(jobs, 0u);
}

TEST(SweepRunner, EnvJobsParsesStrictly)
{
    ::setenv("KMU_JOBS", "6", 1);
    EXPECT_EQ(SweepRunner::envJobs(), 6u);
    ::setenv("KMU_JOBS", "abc", 1);
    EXPECT_EQ(SweepRunner::envJobs(), 1u);
    ::setenv("KMU_JOBS", "4x", 1);
    EXPECT_EQ(SweepRunner::envJobs(), 1u);
    ::unsetenv("KMU_JOBS");
    EXPECT_EQ(SweepRunner::envJobs(), 1u);
}
