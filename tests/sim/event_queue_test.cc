/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/event.hh"

namespace kmu
{
namespace
{

// Event names are views: a temporary std::string would dangle, so
// only literals and lvalue strings bind.
static_assert(std::is_constructible_v<EventName, const std::string &>);
static_assert(std::is_constructible_v<EventName, const char (&)[5]>);
static_assert(!std::is_constructible_v<EventName, std::string &&>);

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::string name, std::vector<std::string> &log,
                   EventPriority prio = EventPriority::Default)
        : Event(std::move(name), prio), log(log)
    {
    }

    void process() override { log.emplace_back(name()); }

  private:
    std::vector<std::string> &log;
};

/**
 * The kernels the suites run on. The ladder scheduler is the only
 * one; the suites stay instantiated over this list so that every test
 * keeps its id (Kernels/<Suite>.<Test>/Ladder).
 */
enum class Kernel
{
    Ladder,
};

const char *
kernelName(const ::testing::TestParamInfo<Kernel> &)
{
    return "Ladder";
}

class EventQueueTest : public ::testing::TestWithParam<Kernel>
{
};

TEST_P(EventQueueTest, OrdersByTick)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    RecordingEvent b("b", log);
    RecordingEvent c("c", log);
    eq.schedule(&b, 20);
    eq.schedule(&a, 10);
    eq.schedule(&c, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST_P(EventQueueTest, SameTickFifoWithinPriority)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("first", log);
    RecordingEvent b("second", log);
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"first", "second"}));
}

TEST_P(EventQueueTest, PriorityBreaksTickTies)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent late("cpu", log, EventPriority::CpuTick);
    RecordingEvent early("resp", log, EventPriority::DeviceResponse);
    eq.schedule(&late, 5);
    eq.schedule(&early, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"resp", "cpu"}));
}

TEST_P(EventQueueTest, DescheduleSkipsEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    RecordingEvent b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b"}));
}

// Regression: a descheduled event may be destroyed while its stale
// scheduler entry is still parked in the queue. The queue must
// recognise the dead entry by sequence number alone — both while
// servicing and in its own destructor — without dereferencing the
// freed event. (Found by ASan: SimChecker deschedules its sweep event
// in its destructor, which runs before ~EventQueue inside ~SimSystem.)
TEST_P(EventQueueTest, DescheduledEventMayDieBeforeQueue)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent keep("keep", log);
    eq.schedule(&keep, 30);
    {
        auto doomed = std::make_unique<RecordingEvent>("doomed", log);
        eq.schedule(doomed.get(), 10);
        eq.deschedule(doomed.get());
    } // freed here; its scheduler entry still sits in front of "keep"
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"keep"}));

    {
        auto doomed = std::make_unique<RecordingEvent>("doomed2", log);
        eq.schedule(doomed.get(), 50);
        eq.deschedule(doomed.get());
    } // stale entry survives until ~EventQueue — it must skip it
    EXPECT_EQ(eq.size(), 0u);
}

TEST_P(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    RecordingEvent b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b", "a"}));
}

TEST_P(EventQueueTest, RunHonorsLimit)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    RecordingEvent b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 100);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_TRUE(b.scheduled());
    eq.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST_P(EventQueueTest, ServiceOneStepsExactlyOne)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    RecordingEvent b("b", log);
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    EXPECT_TRUE(eq.serviceOne());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.serviceOne());
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_EQ(eq.serviced(), 2u);
}

TEST_P(EventQueueTest, LambdaEventsRunAndFree)
{
    EventQueue eq;
    int hits = 0;
    for (int i = 0; i < 100; ++i)
        eq.scheduleLambda(Tick(i), [&hits]() { hits++; });
    eq.run();
    EXPECT_EQ(hits, 100);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.ownedPending(), 0u);
}

TEST_P(EventQueueTest, EventsScheduledDuringProcessing)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            eq.scheduleLambda(eq.curTick() + 10, chain);
    };
    eq.scheduleLambda(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST_P(EventQueueTest, SizeTracksLiveEvents)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    eq.schedule(&a, 10);
    EXPECT_EQ(eq.size(), 1u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

// Regression: lazy descheduling used to let cancelled scheduler
// entries accumulate without bound when far-future events are
// scheduled and cancelled faster than the scheduler meets them (the
// timeout-guard pattern). The queue now compacts once dead entries
// outnumber live ones, so the dead set stays bounded by
// max(64, liveEvents).
TEST_P(EventQueueTest, CancelledEntriesStayBounded)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent guard("guard", log);
    RecordingEvent keep("keep", log);
    eq.schedule(&keep, 1'000'000'000);

    std::size_t peak = 0;
    for (int i = 0; i < 200'000; ++i) {
        // Arm a far-future timeout guard, then cancel it before it
        // ever services — the pure churn case.
        eq.schedule(&guard, Tick(2'000'000'000) + Tick(i));
        eq.deschedule(&guard);
        peak = std::max(peak, eq.deadEntries());
    }
    // One live event, so the trigger fires at 65 dead entries.
    EXPECT_LE(peak, 65u);
    EXPECT_LE(eq.deadEntries(), 65u);
    EXPECT_EQ(eq.size(), 1u);

    // Compaction must not disturb ordering or survivors.
    eq.schedule(&guard, 999'999'999);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"guard", "keep"}));
}

// Compaction rebuilds the pending set; the surviving entries must
// keep their (tick, priority, insertion-sequence) service order
// exactly.
TEST_P(EventQueueTest, CompactionPreservesOrdering)
{
    EventQueue eq;
    std::vector<std::string> log;

    std::vector<std::unique_ptr<RecordingEvent>> live;
    std::vector<std::unique_ptr<RecordingEvent>> dead;
    std::vector<std::string> expect;
    for (int i = 0; i < 64; ++i) {
        live.push_back(std::make_unique<RecordingEvent>(
            "live" + std::to_string(i), log));
        // Same tick for pairs exercises the seq tie-break.
        eq.schedule(live.back().get(), Tick(10 + i / 2));
        expect.emplace_back(live.back()->name());
    }
    for (int i = 0; i < 200; ++i) {
        dead.push_back(std::make_unique<RecordingEvent>("dead", log));
        eq.schedule(dead.back().get(), Tick(5)); // ahead of the live set
        eq.deschedule(dead.back().get());
    }
    EXPECT_LE(eq.deadEntries(), 65u); // compaction must have run
    eq.run();
    EXPECT_EQ(log, expect);
    EXPECT_TRUE(eq.empty());
}

// Regression (this PR): an event rescheduled *after* a compaction ran
// must fire exactly once at its new tick. Compaction drops the
// cancelled-seq bookkeeping wholesale; a stale mapping from the
// rescheduled event's old sequence number must not survive it, and
// the fresh entry must not be mistaken for a dead one.
TEST_P(EventQueueTest, RescheduleSurvivesCompaction)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent mover("mover", log);
    RecordingEvent churn("churn", log);

    eq.schedule(&mover, 500);
    // Cancel the first placement, leaving a dead entry behind...
    eq.reschedule(&mover, 700);
    // ...then force a compaction while that dead entry is pending.
    for (int i = 0; i < 200; ++i) {
        eq.schedule(&churn, Tick(1000) + Tick(i));
        eq.deschedule(&churn);
    }
    EXPECT_LE(eq.deadEntries(), 65u); // compaction ran
    EXPECT_TRUE(mover.scheduled());

    // And reschedule once more after the compaction.
    eq.reschedule(&mover, 600);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"mover"}));
    EXPECT_EQ(eq.curTick(), 600u);
    EXPECT_TRUE(eq.empty());
}

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueTest,
                         ::testing::Values(Kernel::Ladder), kernelName);

class EventQueueDeathTest : public EventQueueTest
{
};

TEST_P(EventQueueDeathTest, PastSchedulingPanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    eq.scheduleLambda(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(&a, 50), "past");
}

TEST_P(EventQueueDeathTest, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    eq.schedule(&a, 10);
    EXPECT_DEATH(eq.schedule(&a, 20), "twice");
    eq.deschedule(&a);
}

TEST_P(EventQueueDeathTest, RunBoundOfReleasedSlotPanics)
{
    EventQueue eq;
    LambdaEvent *slot = eq.bindLambda([] {});
    eq.runBound(slot);
    EXPECT_DEATH(eq.runBound(slot), "released or scheduled");
}

TEST_P(EventQueueDeathTest, ReadOfReleasedSlotIsReportedByAsan)
{
#if KMU_ASAN_ENABLED
    EventQueue eq;
    LambdaEvent *slot = eq.bindLambda([] {});
    eq.runBound(slot); // the slot's inline store is poisoned again
    const auto *bytes =
        reinterpret_cast<const volatile unsigned char *>(slot);
    EXPECT_DEATH(
        {
            unsigned sum = 0;
            for (std::size_t i = 0; i < sizeof(LambdaEvent); ++i)
                sum += bytes[i];
            (void)sum;
        },
        "use-after-poison");
#else
    GTEST_SKIP() << "the arena's poisoning is visible under ASan only";
#endif
}

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueDeathTest,
                         ::testing::Values(Kernel::Ladder), kernelName);

} // anonymous namespace
} // namespace kmu
