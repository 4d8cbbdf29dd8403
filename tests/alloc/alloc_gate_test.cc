/**
 * @file
 * Allocation gate for the timing model's access path, plus the unit
 * tests of the arena-continuation API it rests on.
 *
 * This executable replaces the global operator new with a counting
 * one (so it is kept apart from the main suite). The gate runs each
 * point twice, at a 600 us and an 1800 us measurement window, and
 * divides the difference in heap allocations by the difference in
 * serviced events: construction and warmup cancel out, leaving the
 * marginal allocations per event of the steady state. A continuation
 * that falls back to std::function or spills out of the arena's
 * inline store shows up here as a rate near one per access.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/sim_system.hh"
#include "mem/lfb.hh"
#include "mem/uncore_queue.hh"
#include "sim/event.hh"

namespace
{

std::atomic<std::uint64_t> heapAllocs{0};

void *
countedAlloc(std::size_t size)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = std::size_t(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace kmu
{
namespace
{

std::uint64_t
allocsSoFar()
{
    return heapAllocs.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------
// The gate.
// ---------------------------------------------------------------

/** Marginal-rate bound: at most one allocation per 100 events. */
constexpr double maxAllocsPerEvent = 0.01;

struct GatePoint
{
    std::string name;
    SystemConfig cfg;
};

std::vector<GatePoint>
gatePoints()
{
    std::vector<GatePoint> out;
    const auto add = [&out](std::string name, Mechanism mech,
                            std::uint32_t cores,
                            std::uint32_t threads) -> SystemConfig & {
        SystemConfig cfg;
        cfg.mechanism = mech;
        cfg.numCores = cores;
        cfg.threadsPerCore = threads;
        cfg.device.latency = microseconds(1);
        out.push_back({std::move(name), cfg});
        return out.back().cfg;
    };
    add("prefetch_1x10", Mechanism::Prefetch, 1, 10);
    add("prefetch_8x8", Mechanism::Prefetch, 8, 8);
    add("swqueue_1x16_b4", Mechanism::SwQueue, 1, 16).batch = 4;
    add("swqueue_8x24", Mechanism::SwQueue, 8, 24);
    add("ondemand_device", Mechanism::OnDemand, 1, 1);
    out.push_back({"dram_baseline", baselineConfig(out.front().cfg)});
    return out;
}

struct Measured
{
    std::uint64_t allocs;
    std::uint64_t events;
};

Measured
measure(SystemConfig cfg, std::uint64_t measure_us)
{
    cfg.measure = microseconds(measure_us);
    const std::uint64_t before = allocsSoFar();
    const RunResult r = runSystem(cfg);
    return {allocsSoFar() - before, r.kernelEvents};
}

class AllocGate : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(AllocGate, SteadyStateAllocatesAlmostNothing)
{
    const GatePoint point = gatePoints().at(GetParam());
    const Measured shortRun = measure(point.cfg, 600);
    const Measured longRun = measure(point.cfg, 1800);
    ASSERT_GT(longRun.events, shortRun.events);
    const double per_event =
        double(longRun.allocs) - double(shortRun.allocs);
    const double rate =
        per_event / double(longRun.events - shortRun.events);
    RecordProperty("allocs_per_event", std::to_string(rate));
    EXPECT_LE(rate, maxAllocsPerEvent)
        << point.name << ": " << longRun.allocs - shortRun.allocs
        << " allocations over " << longRun.events - shortRun.events
        << " marginal events";
}

INSTANTIATE_TEST_SUITE_P(
    AccessPaths, AllocGate,
    ::testing::Range(std::size_t(0), gatePoints().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return gatePoints().at(info.param).name;
    });

// ---------------------------------------------------------------
// bindLambda / runBound.
// ---------------------------------------------------------------

TEST(BoundLambda, SeqComesFromScheduleNotBind)
{
    EventQueue eq;
    std::vector<int> order;
    LambdaEvent *early = eq.bindLambda([&] { order.push_back(1); });
    // Bound later, scheduled earlier: the same-tick tie-break is the
    // schedule order, so this one runs first.
    eq.scheduleLambda(5, [&] { order.push_back(2); });
    eq.schedule(early, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.serviced(), 2u);
}

/** Counts its own destruction once, however often it is moved. */
struct DestroyCounter
{
    explicit DestroyCounter(int &n) : destroyed(&n) {}
    DestroyCounter(DestroyCounter &&o) noexcept
        : destroyed(o.destroyed), live(o.live)
    {
        o.live = false;
    }
    DestroyCounter(const DestroyCounter &) = delete;
    ~DestroyCounter()
    {
        if (live)
            ++*destroyed;
    }
    void operator()() const {}

    int *destroyed;
    bool live = true;
};

TEST(BoundLambda, NeverScheduledIsDestroyedOnceAtTeardown)
{
    int destroyed = 0;
    {
        EventQueue eq;
        eq.bindLambda(DestroyCounter(destroyed));
        eq.scheduleLambda(10, DestroyCounter(destroyed));
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 2);
}

TEST(BoundLambda, RunBoundRunsInPlaceAndRecyclesTheSlot)
{
    EventQueue eq;
    int ran = 0;
    LambdaEvent *first = eq.bindLambda([&] { ++ran; });
    eq.runBound(first);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.serviced(), 0u); // not an event service
    EXPECT_TRUE(eq.empty());
    // The freelist hands the recycled slot straight back.
    LambdaEvent *second = eq.bindLambda([&] { ran += 10; });
    EXPECT_EQ(second, first);
    eq.runBound(second);
    EXPECT_EQ(ran, 11);

    // Warm, a bind/run cycle allocates nothing.
    const std::uint64_t before = allocsSoFar();
    for (int i = 0; i < 1000; ++i)
        eq.runBound(eq.bindLambda([&, i] { ran += i; }));
    EXPECT_EQ(allocsSoFar(), before);
}

TEST(BoundLambda, CallableUpToInlineStoreStaysOffTheHeap)
{
    EventQueue eq;
    eq.runBound(eq.bindLambda([] {})); // warm the arena
    struct Wide
    {
        std::uint64_t word[LambdaEvent::inlineBytes / 8];
    } wide{};
    std::uint64_t sum = 0;
    const std::uint64_t before = allocsSoFar();
    eq.runBound(eq.bindLambda([wide, &sum] { sum += wide.word[0]; }));
    eq.runBound(eq.bindLambda([wide, &sum] { sum += wide.word[1]; }));
    // A capture one pointer over the store spills once per bind.
    EXPECT_EQ(allocsSoFar(), before + 2);
    eq.runBound(eq.bindLambda([wide] { (void)wide; }));
    EXPECT_EQ(allocsSoFar(), before + 2);
    EXPECT_EQ(sum, 0u);
}

TEST(BoundLambda, LfbMergeWaitersRunInFifoOrder)
{
    EventQueue eq;
    StatGroup root("root");
    Lfb lfb("lfb", eq, 2, &root);
    std::vector<int> order;
    order.reserve(8);
    std::vector<Lfb::AllocResult> results;
    results.reserve(8);
    const auto cycle = [&] {
        order.clear();
        results.clear();
        results.push_back(lfb.request(0, [&] { order.push_back(1); }));
        results.push_back(lfb.request(0, [&] { order.push_back(2); }));
        results.push_back(lfb.request(64, [&] { order.push_back(9); }));
        results.push_back(lfb.request(0, [&] { order.push_back(3); }));
        lfb.waitForFree([&] { order.push_back(4); });
        lfb.waitForFree([&] { order.push_back(5); });
        // The merged waiters in arrival order, then one freed entry's
        // worth of free-waiters, all on the filling call's stack.
        lfb.fill(0);
        lfb.fill(64);
    };
    cycle(); // warms the arena
    const std::uint64_t before = allocsSoFar();
    cycle();
    EXPECT_EQ(allocsSoFar(), before);
    using R = Lfb::AllocResult;
    EXPECT_EQ(results, (std::vector<R>{R::NewEntry, R::Merged,
                                       R::NewEntry, R::Merged}));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 9, 5}));
    EXPECT_EQ(eq.serviced(), 0u);
}

TEST(BoundLambda, ChipQueueWaitersRunInFifoOrder)
{
    EventQueue eq;
    StatGroup root("root");
    UncoreQueue q("q", eq, 1, &root);
    std::vector<int> order;
    order.reserve(8);
    std::uint64_t parkAllocs = 0;
    const auto cycle = [&] {
        order.clear();
        q.acquire([&] { order.push_back(0); });
        // Parking binds each waiter into the arena: no allocation.
        const std::uint64_t before = allocsSoFar();
        for (int i = 1; i <= 4; ++i)
            q.acquire([&, i] { order.push_back(i); });
        parkAllocs = allocsSoFar() - before;
        eq.run();
        for (int i = 0; i <= 4; ++i) {
            q.release();
            eq.run();
        }
    };
    cycle(); // warms the arena
    cycle();
    EXPECT_EQ(parkAllocs, 0u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.fullStalls.value(), 8u);
}

} // anonymous namespace
} // namespace kmu
