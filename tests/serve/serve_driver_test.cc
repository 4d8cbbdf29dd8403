/**
 * @file
 * Unit tests for the ServeDriver's dispatch protocol: admission
 * binding, FIFO wake order, in-order retirement, latency accounting
 * (queueing included), the partly-open client cap, and measurement
 * windowing.
 *
 * The driver is exercised directly against an EventQueue with the
 * test standing in for the cores: admit()/retire() calls at chosen
 * ticks, no SimSystem.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "serve/serve_driver.hh"
#include "sim/event.hh"

using namespace kmu;
using namespace kmu::serve;

namespace
{

ServeConfig
testCfg(double lambda = 1.0)
{
    ServeConfig cfg;
    cfg.arrival = ArrivalKind::Poisson;
    cfg.lambdaPerUs = lambda;
    cfg.numKeys = 1024;
    cfg.valueLines = 2;
    cfg.seed = 42;
    return cfg;
}

struct Harness
{
    EventQueue eq;
    StatGroup root{"root", nullptr};
    ServeDriver driver;

    explicit Harness(const ServeConfig &cfg, std::uint32_t lanes = 1)
        : driver(cfg, eq, &root, lanes)
    {
    }
};

} // anonymous namespace

TEST(ServeDriverTest, AdmitBlocksUntilArrivalThenWakes)
{
    Harness h(testCfg(1.0));
    int wakes = 0;
    // Before start() no request exists: the lane parks.
    EXPECT_FALSE(h.driver.admit(0, 0, [&]() { wakes++; }));
    h.driver.start();
    // Run to the first arrival: it binds to the parked lane and the
    // wake fires.
    while (wakes == 0 && h.eq.serviceOne()) {
    }
    EXPECT_EQ(wakes, 1);
    // The woken lane re-admits the same iteration: idempotent true.
    EXPECT_TRUE(h.driver.admit(0, 0, []() {}));
    EXPECT_TRUE(h.driver.admit(0, 0, []() {}));
}

TEST(ServeDriverTest, AddressesCoverValueLinesBelowTagBits)
{
    ServeConfig cfg = testCfg();
    Harness h(cfg);
    EXPECT_FALSE(h.driver.admit(0, 0, []() {}));
    h.driver.start();
    while (h.eq.serviceOne() && !h.driver.admit(0, 0, []() {})) {
    }
    const Addr a0 = h.driver.addressFor(0, 0, 0);
    const Addr a1 = h.driver.addressFor(0, 0, 1);
    EXPECT_EQ(a1, a0 + cacheLineSize); // value lines are contiguous
    EXPECT_EQ(a0 % cacheLineSize, 0u);
    // Addresses stay below the shard/generation tag bits (48+).
    EXPECT_LT(a1, Addr(1) << 48);
}

TEST(ServeDriverTest, KeyspaceProductMayNotWrapPastTheTagCheck)
{
    // 2^63 keys x 2 lines wraps a 64-bit product to 0; the keyspace
    // check must still see it as far over the 2^42-line limit.
    ServeConfig cfg = testCfg();
    cfg.numKeys = std::uint64_t(1) << 63;
    cfg.valueLines = 2;
    EXPECT_FALSE(cfg.keyspaceFits());
    EXPECT_DEATH(Harness h(cfg), "overflows the address tags");
}

TEST(ServeDriverTest, LatencyIncludesQueueingDelay)
{
    // One lane, high offered load: bind the first request, sit on it
    // for a while, then retire. The recorded latency must be the
    // arrival->retire span, not the service time the lane spent.
    Harness h(testCfg(2.0));
    h.driver.setMeasureStart(0);
    bool bound = false;
    h.driver.admit(0, 0, [&]() { bound = true; });
    h.driver.start();
    while (!bound && h.eq.serviceOne()) {
    }
    ASSERT_TRUE(bound);
    const Tick arrival = h.eq.curTick();
    // Let more arrivals pile up while the lane "works".
    const Tick retire_at = arrival + microseconds(30);
    h.eq.scheduleLambda(retire_at, [&]() { h.driver.retire(0, 0); });
    h.eq.run(retire_at);
    EXPECT_EQ(h.driver.completed(), 1u);
    // One sample of ~30us = 30000ns: the histogram quantile must
    // land in its log2 bucket [16384, 32768) ns.
    const double p50 = h.driver.latencyLog().quantile(0.5);
    EXPECT_GE(p50, 16384.0);
    EXPECT_LE(p50, 32768.0);
    EXPECT_GT(h.driver.offered(), 1u) << "arrivals kept flowing";
}

TEST(ServeDriverTest, FifoWakeOrderAcrossLanes)
{
    // Three lanes park in order 2, 0, 1: arrivals must wake them in
    // exactly that order (longest-parked first).
    Harness h(testCfg(1.0), 3);
    std::vector<std::uint32_t> order;
    for (const std::uint32_t lane : {2u, 0u, 1u}) {
        EXPECT_FALSE(h.driver.admit(
            lane, 0, [&order, lane]() { order.push_back(lane); }));
    }
    h.driver.start();
    while (order.size() < 3 && h.eq.serviceOne()) {
    }
    EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 0, 1}));
}

TEST(ServeDriverTest, ClientCapPausesArrivals)
{
    // clients = 2 and nobody retiring: after two arrivals the clock
    // must stop (partly-open back-pressure), leaving the queue
    // empty. Retiring one request resumes it.
    ServeConfig cfg = testCfg(10.0);
    cfg.clients = 2;
    Harness h(cfg);
    bool bound = false;
    h.driver.admit(0, 0, [&]() { bound = true; });
    h.driver.start();
    h.eq.run(); // drains: the third arrival is withheld
    EXPECT_TRUE(bound);
    EXPECT_EQ(h.driver.offered(), 2u);
    EXPECT_EQ(h.driver.inFlightPeak(), 2u);

    h.driver.retire(0, 0); // frees a client; the clock resumes
    ASSERT_FALSE(h.eq.empty());
    while (h.driver.offered() < 3 && h.eq.serviceOne()) {
    }
    EXPECT_EQ(h.driver.offered(), 3u);
}

TEST(ServeDriverTest, MeasureStartGatesCounters)
{
    // Arrivals and retires before the measurement window start are
    // driven but not counted.
    Harness h(testCfg(1.0));
    h.driver.setMeasureStart(microseconds(1000));
    bool bound = false;
    h.driver.admit(0, 0, [&]() { bound = true; });
    h.driver.start();
    while (!bound && h.eq.serviceOne()) {
    }
    h.driver.retire(0, 0);
    EXPECT_EQ(h.driver.offered(), 0u);
    EXPECT_EQ(h.driver.completed(), 0u);
    EXPECT_EQ(h.driver.latencyLog().samples(), 0u);
}

TEST(ServeDriverTest, InOrderRetirePerLane)
{
    // Bind two requests to one lane and retire both: iteration
    // numbers must advance in order and addressFor() must track the
    // oldest unretired request.
    Harness h(testCfg(5.0));
    h.driver.start();
    // Admit iterations 0 and 1 as requests arrive.
    std::uint64_t iter = 0;
    while (iter < 2 && h.eq.serviceOne()) {
        while (iter < 2 && h.driver.admit(0, iter, []() {}))
            iter++;
    }
    ASSERT_EQ(iter, 2u);
    const Addr first = h.driver.addressFor(0, 0, 0);
    h.driver.retire(0, 0);
    const Addr second = h.driver.addressFor(0, 1, 0);
    h.driver.retire(0, 1);
    EXPECT_EQ(h.driver.completed(), 2u);
    // Different keys were drawn, so the two requests' addresses are
    // distinct with overwhelming probability under seed 42.
    EXPECT_NE(first, second);
}
