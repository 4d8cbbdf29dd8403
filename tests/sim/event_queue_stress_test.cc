/**
 * @file
 * Property and stress tests for the event kernel.
 *
 * A naive reference model — a flat vector served by min-scan over
 * (tick, priority, insertion sequence) — defines the one true service
 * order. Randomized schedule/deschedule/reschedule/service
 * interleavings are replayed against the event queue, and every
 * serviced event must match the reference pop exactly.
 *
 * The tick deltas are drawn across all ladder rungs (sub-ns buckets
 * through the >17 ms overflow list), so the sweeps cross bucket
 * boundaries, trigger cascades, hit the sparse-bucket promotion path,
 * and force overflow rebasing. Targeted tests pin each of those edges
 * individually.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sim/event.hh"

namespace kmu
{
namespace
{

class IdEvent : public Event
{
  public:
    IdEvent(int id, std::vector<int> &log,
            EventPriority prio = EventPriority::Default)
        : Event("id" + std::to_string(id), prio), id(id), log(log)
    {
    }

    void process() override { log.push_back(id); }

    const int id;

  private:
    std::vector<int> &log;
};

/**
 * The executable specification: every entry carries the same
 * (when, prio, seq) key the production schedulers order by, and
 * service is a linear min-scan. Correct by inspection.
 */
class ReferenceQueue
{
  public:
    struct RefEntry
    {
        Tick when;
        std::int32_t prio;
        std::uint64_t seq;
        int id;
    };

    struct RefEntryPop
    {
        Tick when;
        int id;
    };

    void
    insert(Tick when, EventPriority prio, std::uint64_t seq, int id)
    {
        entries.push_back(
            {when, static_cast<std::int32_t>(prio), seq, id});
    }

    void
    erase(std::uint64_t seq)
    {
        auto it = std::find_if(
            entries.begin(), entries.end(),
            [&](const RefEntry &e) { return e.seq == seq; });
        ASSERT_NE(it, entries.end());
        entries.erase(it);
    }

    /** Pop the strict (when, prio, seq) minimum. */
    RefEntryPop
    pop()
    {
        auto it = std::min_element(
            entries.begin(), entries.end(),
            [](const RefEntry &a, const RefEntry &b) {
                if (a.when != b.when)
                    return a.when < b.when;
                if (a.prio != b.prio)
                    return a.prio < b.prio;
                return a.seq < b.seq;
            });
        RefEntryPop out{it->when, it->id};
        entries.erase(it);
        return out;
    }

    std::size_t size() const { return entries.size(); }

  private:
    std::vector<RefEntry> entries;
};

/** The kernels the suite runs on; see event_queue_test.cc. */
enum class Kernel
{
    Ladder,
};

const char *
kernelName(const ::testing::TestParamInfo<Kernel> &)
{
    return "Ladder";
}

class EventQueueStressTest : public ::testing::TestWithParam<Kernel>
{
};

/** Tick deltas spanning every ladder rung plus the overflow list. */
Tick
drawDelta(std::mt19937_64 &rng)
{
    switch (rng() % 6) {
    case 0:
        return 0; // same-tick (priority/seq tie-breaks)
    case 1:
        return 1 + rng() % 1'000; // rung 0 (1 ns buckets)
    case 2:
        return 1'000 + rng() % 261'144; // rung 0 span edge
    case 3:
        return 262'144 + rng() % 66'846'720; // rung 1 (262 ns)
    case 4:
        return Tick(67'108'864) +
               rng() % Tick(17'112'760'320); // rung 2 (67 us)
    default:
        return Tick(17'179'869'184) +
               rng() % Tick(1'000'000'000'000); // overflow (>17 ms)
    }
}

EventPriority
drawPriority(std::mt19937_64 &rng)
{
    static constexpr std::array<EventPriority, 4> prios = {
        EventPriority::DeviceResponse, EventPriority::Default,
        EventPriority::CpuTick, EventPriority::Stats};
    return prios[rng() % prios.size()];
}

// Random interleavings of the full mutation API, validated op-by-op
// against the reference model. Seeded, so failures replay exactly.
TEST_P(EventQueueStressTest, RandomOpsMatchReferenceModel)
{
    EventQueue eq;
    ReferenceQueue ref;
    std::mt19937_64 rng(0x5eed'0001);

    std::vector<int> log;
    constexpr int poolSize = 64;
    std::vector<std::unique_ptr<IdEvent>> pool(poolSize);

    // The reference mirrors the queue's insertion-sequence counter:
    // one seq per schedule() call, including the one inside
    // reschedule(). perEventSeq remembers each event's live entry.
    std::uint64_t nextSeq = 0;
    std::array<std::uint64_t, poolSize> perEventSeq{};

    std::vector<int> idle;    // pool indices not scheduled
    std::vector<int> pending; // pool indices scheduled
    Tick lastWhen = 0;        // reused sometimes to force exact ties

    auto drawWhen = [&]() -> Tick {
        if (rng() % 4 == 0 && lastWhen >= eq.curTick())
            return lastWhen; // exact (when) collision
        lastWhen = eq.curTick() + drawDelta(rng);
        return lastWhen;
    };

    for (int i = 0; i < poolSize; ++i)
        idle.push_back(i);

    for (int op = 0; op < 30'000; ++op) {
        const auto pick = rng() % 100;
        if (pick < 45 && !idle.empty()) {
            // Schedule an idle event at a random tick/priority.
            const int slot = int(rng() % idle.size());
            const int id = idle[slot];
            idle.erase(idle.begin() + slot);
            const Tick when = drawWhen();
            const EventPriority prio = drawPriority(rng);
            if (!pool[std::size_t(id)] ||
                pool[std::size_t(id)]->priority() != prio)
                pool[std::size_t(id)] =
                    std::make_unique<IdEvent>(id, log, prio);
            eq.schedule(pool[std::size_t(id)].get(), when);
            ref.insert(when, prio, nextSeq, id);
            perEventSeq[std::size_t(id)] = nextSeq++;
            pending.push_back(id);
        } else if (pick < 55 && !pending.empty()) {
            // Deschedule a random pending event.
            const int slot = int(rng() % pending.size());
            const int id = pending[slot];
            pending.erase(pending.begin() + slot);
            eq.deschedule(pool[std::size_t(id)].get());
            ref.erase(perEventSeq[std::size_t(id)]);
            idle.push_back(id);
        } else if (pick < 70 && !pending.empty()) {
            // Reschedule: cancels the old entry, takes a fresh seq.
            const int id = pending[rng() % pending.size()];
            const Tick when = drawWhen();
            eq.reschedule(pool[std::size_t(id)].get(), when);
            ref.erase(perEventSeq[std::size_t(id)]);
            ref.insert(when, pool[std::size_t(id)]->priority(),
                       nextSeq, id);
            perEventSeq[std::size_t(id)] = nextSeq++;
        } else {
            // Service a small burst, checking each pop against the
            // reference minimum.
            const int burst = 1 + int(rng() % 4);
            for (int k = 0; k < burst && ref.size() > 0; ++k) {
                const auto expect = ref.pop();
                ASSERT_TRUE(eq.serviceOne());
                ASSERT_FALSE(log.empty());
                ASSERT_EQ(log.back(), expect.id)
                    << "service order diverged at op " << op;
                ASSERT_EQ(eq.curTick(), expect.when);
                pending.erase(std::find(pending.begin(),
                                        pending.end(), expect.id));
                idle.push_back(expect.id);
            }
        }

        ASSERT_EQ(eq.size(), ref.size());
        // Lazy-cancel bookkeeping must stay bounded by live events
        // (with the compaction trigger's floor of 64, +1 for the
        // entry examined before the trigger fires).
        ASSERT_LE(eq.deadEntries(), std::max<std::size_t>(
                                        eq.size(), 64) + 1);
    }

    // Drain: the tail must come out in exact reference order too.
    while (ref.size() > 0) {
        const auto expect = ref.pop();
        ASSERT_TRUE(eq.serviceOne());
        ASSERT_EQ(log.back(), expect.id);
        ASSERT_EQ(eq.curTick(), expect.when);
    }
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_TRUE(eq.empty());
}

// One-shot lambda churn: owned arena slots must be recycled (never
// accumulated) across schedule/run cycles, including heap-spilled
// captures larger than the inline slot.
TEST_P(EventQueueStressTest, LambdaChurnKeepsArenaBounded)
{
    EventQueue eq;
    std::mt19937_64 rng(0x5eed'0002);
    std::uint64_t hits = 0;
    std::uint64_t expected = 0;

    for (int round = 0; round < 200; ++round) {
        const int n = 1 + int(rng() % 100);
        for (int i = 0; i < n; ++i) {
            ++expected;
            if (rng() % 8 == 0) {
                // Capture bigger than LambdaEvent's inline storage:
                // exercises the heap-spill bind/dispose pair.
                std::array<std::uint64_t, 16> big{};
                big[0] = 1;
                eq.scheduleLambda(
                    eq.curTick() + drawDelta(rng),
                    [&hits, big]() { hits += big[0]; },
                    drawPriority(rng), "spill");
            } else {
                eq.scheduleLambda(
                    eq.curTick() + 1 + rng() % 1000,
                    [&hits]() { ++hits; }, drawPriority(rng),
                    "inline");
            }
        }
        ASSERT_EQ(eq.ownedPending(), eq.size());
        eq.run();
        ASSERT_EQ(eq.ownedPending(), 0u);
        ASSERT_TRUE(eq.empty());
    }
    EXPECT_EQ(hits, expected);
}

// Lambdas still pending when the queue dies must be disposed by the
// destructor (ASan leak checking on the CI legs pins the "must free"
// half; the explicit counter pins "exactly the unserviced ones").
TEST_P(EventQueueStressTest, UnservicedLambdasFreedAtDestruction)
{
    auto alive = std::make_shared<int>(42);
    std::weak_ptr<int> watch = alive;
    {
        EventQueue eq;
        for (int i = 0; i < 100; ++i)
            eq.scheduleLambda(Tick(1'000'000) + Tick(i),
                              [keep = alive]() { (void)*keep; });
        alive.reset();
        EXPECT_FALSE(watch.expired()); // captures hold it
        EXPECT_EQ(eq.ownedPending(), 100u);
    }
    EXPECT_TRUE(watch.expired()); // every capture disposed
}

// Ladder bucket-boundary edges: ticks straddling every rung's bucket
// and window boundaries, with priority ties on the boundary ticks.
TEST_P(EventQueueStressTest, BucketBoundaryOrdering)
{
    EventQueue eq;
    std::vector<int> log;

    // Rung widths: 1<<10, 1<<18, 1<<26; window spans: 256 buckets.
    const std::vector<Tick> ticks = {
        1023,          1024,          1025,          // bucket edge r0
        262'143,       262'144,       262'145,       // window edge r0
        67'108'863,    67'108'864,    67'108'865,    // window edge r1
        17'179'869'183, 17'179'869'184,              // overflow edge
    };

    std::vector<std::unique_ptr<IdEvent>> events;
    std::vector<int> expect;
    int id = 0;
    // Two events per tick — same tick, different priority — inserted
    // in reverse-priority order so the scheduler must reorder them.
    for (const Tick t : ticks) {
        events.push_back(std::make_unique<IdEvent>(
            id, log, EventPriority::CpuTick));
        eq.schedule(events.back().get(), t);
        events.push_back(std::make_unique<IdEvent>(
            id + 1, log, EventPriority::DeviceResponse));
        eq.schedule(events.back().get(), t);
        expect.push_back(id + 1); // DeviceResponse first
        expect.push_back(id);
        id += 2;
    }
    eq.run();
    EXPECT_EQ(log, expect);
}

// maxTick saturation: the "never" guard tick must be schedulable and
// service last, without the ladder's window arithmetic wrapping.
TEST_P(EventQueueStressTest, MaxTickSaturation)
{
    EventQueue eq;
    std::vector<int> log;
    IdEvent early(0, log);
    IdEvent nearEnd(1, log);
    IdEvent end1(2, log);
    IdEvent end2(3, log); // same tick: seq tie-break at saturation
    eq.schedule(&end1, maxTick);
    eq.schedule(&end2, maxTick);
    eq.schedule(&nearEnd, maxTick - 3);
    eq.schedule(&early, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.curTick(), maxTick);
}

// Overflow rebase: events parked beyond the top rung's span must
// migrate into the rungs once time advances, preserving order across
// multiple rebase generations.
TEST_P(EventQueueStressTest, OverflowRebasePreservesOrder)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<IdEvent>> events;
    std::vector<int> expect;

    // Five generations, each ~20 ms apart (beyond the 17 ms rung-2
    // span, so each lands in the overflow list relative to the
    // previous generation's service time).
    const Tick gen = 20'000'000'000; // 20 ms in ps
    int id = 0;
    for (int g = 1; g <= 5; ++g) {
        for (int i = 0; i < 3; ++i) {
            events.push_back(std::make_unique<IdEvent>(id, log));
            eq.schedule(events.back().get(),
                        Tick(g) * gen + Tick(i) * 1'000);
            expect.push_back(id++);
        }
    }
    eq.run();
    EXPECT_EQ(log, expect);
}

// Regression: descheduling EVERY overflow entry and then draining
// (which triggers an overflow rebase that meets only dead entries)
// must not move the coarsest rung's window. The bug: the rebase set
// the window to the dead entries' far-future minimum before
// filtering, parking it well past the service point while frontEnd
// stayed low. A later insert into the uncovered gap then joined the
// active run while an earlier-tick insert landed in a stale
// finer-rung window — and was serviced second, aborting on "time
// went backwards". Timeout guards cancelled under load hit exactly
// this shape.
TEST_P(EventQueueStressTest, AllCancelledOverflowRebaseKeepsOrder)
{
    EventQueue eq;
    std::vector<int> log;

    // Park guard events deep in the overflow list (~2^40 ps = ~1 s),
    // then cancel them all. The compaction trigger's floor keeps the
    // cancellations lazy, so the dead seqs are still stored when the
    // rebase runs.
    std::vector<std::unique_ptr<IdEvent>> guards;
    for (int i = 0; i < 4; ++i) {
        guards.push_back(std::make_unique<IdEvent>(100 + i, log));
        eq.schedule(guards.back().get(),
                    (Tick(1) << 40) + Tick(i) * 1'000);
    }
    for (auto &g : guards)
        eq.deschedule(g.get());

    // Drain: the refill cascades through the empty rungs into the
    // overflow rebase, which finds only cancelled entries.
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_TRUE(eq.empty());

    // A later event into what the stale window would leave as an
    // uncovered gap, then an earlier event into the (possibly stale)
    // finest-rung window. Service order must follow the ticks.
    IdEvent later(1, log);
    IdEvent earlier(0, log);
    eq.schedule(&later, Tick(1) << 30);
    eq.schedule(&earlier, Tick(1) << 16);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.curTick(), Tick(1) << 30);

    // The rungs must still accept and rebase a fresh overflow
    // generation after the all-cancelled episode.
    IdEvent far(2, log);
    eq.schedule(&far, Tick(1) << 40);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

// Sparse-bucket promotion: µs-spaced events leave coarse-rung buckets
// at or below the promotion threshold, so cascading promotes them
// straight into the active run. Inserting new events *below* the
// promoted window's end must still service in exact order.
TEST_P(EventQueueStressTest, SparseBucketPromotionOrdering)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<IdEvent>> events;

    // A sparse µs-spaced stream (the device-completion shape).
    for (int i = 0; i < 64; ++i) {
        events.push_back(std::make_unique<IdEvent>(i, log));
        eq.schedule(events.back().get(),
                    Tick(i + 1) * 1'000'000); // every 1 µs
    }

    // Service half, injecting a near event after each pop — each
    // injection lands inside whatever window the promotion exposed.
    std::vector<int> expect;
    int nextId = 64;
    for (int i = 0; i < 32; ++i) {
        expect.push_back(i);
        ASSERT_TRUE(eq.serviceOne());
        events.push_back(std::make_unique<IdEvent>(nextId, log));
        eq.schedule(events.back().get(), eq.curTick() + 100);
        expect.push_back(nextId++);
        ASSERT_TRUE(eq.serviceOne());
    }
    for (int i = 32; i < 64; ++i)
        expect.push_back(i);
    eq.run();
    EXPECT_EQ(log, expect);
}

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueStressTest,
                         ::testing::Values(Kernel::Ladder), kernelName);

} // anonymous namespace
} // namespace kmu
