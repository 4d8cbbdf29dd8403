/**
 * @file
 * Event-kernel microbench: events/sec of the scheduler itself.
 *
 * Drives a fig07-shaped synthetic event pattern — per-core poll-tick
 * chains (~50 ns), device round trips (~1 µs, DeviceResponse
 * priority), same-tick continuation steps, and timeout-guard
 * reschedule churn — through two kernels:
 *
 *  - legacy: a faithful replica of the pre-arena kernel (binary
 *    heap, one heap-allocated CallbackEvent + ownedLambdas map entry
 *    per one-shot, per-schedule name concatenation, virtual
 *    dispatch), kept here as the committed baseline;
 *  - ladder: today's kernel (arena events on the ladder scheduler).
 *
 * The measured loop is the schedule -> dispatch round trip exactly as
 * the model's call sites drive it, so the legacy column prices in the
 * allocation idiom its call sites used. Every kernel services the
 * same deterministic event sequence; only wall time may differ.
 *
 * With bench_json=FILE, appends a record with events/sec per kernel
 * and the new-vs-legacy ratio to the BENCH_sweep.json trajectory;
 * the perf-smoke ctest gate compares that ratio against the
 * committed baseline (tests/artifacts/event_kernel_baseline.json).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event.hh"
#include "sweep/bench_log.hh"
#include "tools/tool_args.hh"

using namespace kmu;

namespace
{

// ---------------------------------------------------------------
// Legacy kernel replica (the pre-arena EventQueue, verbatim logic).
// ---------------------------------------------------------------

class LegacyEvent
{
  public:
    explicit LegacyEvent(std::string name,
                         EventPriority prio = EventPriority::Default)
        : eventName(std::move(name)), prio(prio)
    {
    }
    virtual ~LegacyEvent() = default;
    virtual void process() = 0;

    bool scheduled() const { return isScheduled; }

    std::string eventName;
    EventPriority prio;
    bool isScheduled = false;
    bool ownedByQueue = false;
    Tick scheduledAt = 0;
    std::uint64_t heapSeq = 0;
};

class LegacyCallbackEvent : public LegacyEvent
{
  public:
    LegacyCallbackEvent(std::string name, std::function<void()> fn,
                        EventPriority prio = EventPriority::Default)
        : LegacyEvent(std::move(name), prio), callback(std::move(fn))
    {
    }
    void process() override { callback(); }

  private:
    std::function<void()> callback;
};

class LegacyQueue
{
  public:
    Tick curTick() const { return now; }

    void
    schedule(LegacyEvent *event, Tick when)
    {
        event->isScheduled = true;
        event->scheduledAt = when;
        event->heapSeq = nextSeq;
        heap.push(HeapEntry{when, std::int32_t(event->prio),
                            nextSeq++, event});
        liveEvents++;
    }

    void
    deschedule(LegacyEvent *event)
    {
        event->isScheduled = false;
        cancelledSeqs.insert(event->heapSeq);
        liveEvents--;
        if (cancelledSeqs.size() > 64 &&
            cancelledSeqs.size() > liveEvents)
            compact();
    }

    void
    reschedule(LegacyEvent *event, Tick when)
    {
        if (event->isScheduled)
            deschedule(event);
        schedule(event, when);
    }

    void
    scheduleLambda(Tick when, std::function<void()> fn,
                   EventPriority prio, std::string name)
    {
        auto ev = std::make_unique<LegacyCallbackEvent>(
            std::move(name), std::move(fn), prio);
        ev->ownedByQueue = true;
        LegacyCallbackEvent *raw = ev.get();
        ownedLambdas.emplace(raw, std::move(ev));
        schedule(raw, when);
    }

    bool
    serviceOne()
    {
        while (!heap.empty() && cancelledSeqs.erase(heap.top().seq))
            heap.pop();
        if (heap.empty())
            return false;
        HeapEntry entry = heap.top();
        heap.pop();
        LegacyEvent *ev = entry.event;
        now = entry.when;
        ev->isScheduled = false;
        liveEvents--;
        servicedCount++;
        ev->process();
        if (ev->ownedByQueue && !ev->isScheduled)
            ownedLambdas.erase(ev);
        return true;
    }

    std::uint64_t serviced() const { return servicedCount; }

  private:
    struct HeapEntry
    {
        Tick when;
        std::int32_t prio;
        std::uint64_t seq;
        LegacyEvent *event;
    };
    struct HeapCompare
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    void
    compact()
    {
        std::vector<HeapEntry> survivors;
        survivors.reserve(liveEvents);
        while (!heap.empty()) {
            const HeapEntry &entry = heap.top();
            if (!cancelledSeqs.erase(entry.seq))
                survivors.push_back(entry);
            heap.pop();
        }
        std::unordered_set<std::uint64_t>().swap(cancelledSeqs);
        heap = decltype(heap)(HeapCompare{}, std::move(survivors));
    }

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t liveEvents = 0;
    std::uint64_t servicedCount = 0;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        HeapCompare> heap;
    std::unordered_set<std::uint64_t> cancelledSeqs;
    std::unordered_map<LegacyEvent *,
                       std::unique_ptr<LegacyEvent>> ownedLambdas;
};

// ---------------------------------------------------------------
// The fig07-shaped workload, templated over the queue under test.
// ---------------------------------------------------------------

/**
 * One measured run. `legacyNames` reproduces the pre-arena call-site
 * idiom of building "<component>.<suffix>" per schedule; the modern
 * kernels get the cached names today's call sites pass.
 */
template <typename Queue, bool legacyNames>
class Driver
{
  public:
    explicit Driver(Queue &queue) : q(queue)
    {
        for (unsigned c = 0; c < cores; ++c) {
            coreName[c] = "core" + std::to_string(c);
            wakeName[c] = coreName[c] + ".wake";
            stepName[c] = coreName[c] + ".step";
            deliverName[c] = coreName[c] + ".deliver";
            guards.push_back(std::make_unique<Guard>(
                coreName[c] + ".guard", [] {},
                EventPriority::Default));
        }
    }

    ~Driver()
    {
        for (auto &g : guards) {
            if (g->scheduled())
                q.deschedule(g.get());
        }
    }

    std::uint64_t
    run(std::uint64_t target_events)
    {
        for (unsigned c = 0; c < cores; ++c)
            schedulePoll(c, q.curTick() + pollPeriod);
        std::uint64_t serviced = 0;
        while (serviced < target_events && q.serviceOne())
            ++serviced;
        return serviced;
    }

  private:
    /** Timeout guard: a member-style CallbackEvent the driver keeps
     *  rescheduling, as the model's watchdog/sampler events do. */
    using Guard = std::conditional_t<
        std::is_same_v<Queue, LegacyQueue>, LegacyCallbackEvent,
        CallbackEvent>;

    static constexpr unsigned cores = 4;
    static constexpr Tick pollPeriod = 50 * tickPerNs;
    static constexpr Tick deviceLatency = 1000 * tickPerNs;
    static constexpr Tick guardTimeout = 100'000 * tickPerNs;

    /** The name a schedule passes: rebuilt per call under the legacy
     *  idiom, the cached member (viewed, never copied) otherwise. */
    decltype(auto)
    nameOf(const std::string (&cached)[cores], unsigned c,
           const char *suffix) const
    {
        if constexpr (legacyNames)
            return coreName[c] + suffix;
        else
            return (cached[c]);
    }

    void
    schedulePoll(unsigned c, Tick when)
    {
        q.scheduleLambda(
            when, [this, c] { pollTick(c); },
            EventPriority::CpuTick, nameOf(wakeName, c, ".wake"));
    }

    void
    pollTick(unsigned c)
    {
        // Every 4th poll issues a device read; in-flight round trips
        // mimic the 10-LFB pipelining of the queue-based mechanism.
        if (++pollCount[c] % 4 == 0 && inFlight[c] < 10)
            issueRead(c);
        schedulePoll(c, q.curTick() + pollPeriod);
    }

    void
    issueRead(unsigned c)
    {
        ++inFlight[c];
        // Watchdog churn: re-arming the guard deschedules the
        // previous instance, feeding the lazy-cancel path.
        q.reschedule(guards[c].get(), q.curTick() + guardTimeout);
        q.scheduleLambda(
            q.curTick() + deviceLatency,
            [this, c] {
                --inFlight[c];
                // Same-tick continuation, as the core's completion
                // callback charges its work block.
                q.scheduleLambda(
                    q.curTick(), [this, c] { ++stepsDone[c]; },
                    EventPriority::CpuTick,
                    nameOf(stepName, c, ".step"));
            },
            EventPriority::DeviceResponse,
            nameOf(deliverName, c, ".deliver"));
    }

    Queue &q;
    std::string coreName[cores];
    std::string wakeName[cores];
    std::string stepName[cores];
    std::string deliverName[cores];
    std::vector<std::unique_ptr<Guard>> guards;
    std::uint64_t pollCount[cores] = {};
    std::uint64_t stepsDone[cores] = {};
    unsigned inFlight[cores] = {};
};

struct Measurement
{
    std::uint64_t events;
    double seconds;
    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? double(events) / seconds : 0.0;
    }
};

template <typename Queue, bool legacyNames>
Measurement
measure(Queue &queue, std::uint64_t target_events)
{
    Driver<Queue, legacyNames> driver(queue);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t serviced = driver.run(target_events);
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
    return Measurement{serviced, secs};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 1'000'000;
    std::string bench_json;
    for (int i = 1; i < argc; ++i) {
        std::string key, value;
        if (!toolargs::parseKv(argv[i], key, value)) {
            toolargs::reportBadArg("ubench_event_kernel", argv[i]);
            return 1;
        }
        bool ok = true;
        if (key == "events")
            ok = toolargs::parseU64(value, events) && events > 0;
        else if (key == "bench_json")
            bench_json = value;
        else {
            toolargs::reportUnknownKey("ubench_event_kernel", key);
            return 1;
        }
        if (!ok) {
            toolargs::reportBadValue("ubench_event_kernel", key,
                                     value);
            return 1;
        }
    }

    // Warm each kernel briefly so slab/bucket allocation settles
    // outside the measured window, as it does in a real sweep.
    const std::uint64_t warm = std::min<std::uint64_t>(events / 10,
                                                       50'000);

    LegacyQueue legacy_warm;
    measure<LegacyQueue, true>(legacy_warm, warm);
    LegacyQueue legacy_q;
    const Measurement legacy =
        measure<LegacyQueue, true>(legacy_q, events);

    EventQueue ladder_q;
    measure<EventQueue, false>(ladder_q, warm);
    const Measurement ladder =
        measure<EventQueue, false>(ladder_q, events);

    const double ratio =
        legacy.eventsPerSec() > 0.0
            ? ladder.eventsPerSec() / legacy.eventsPerSec()
            : 0.0;

    std::printf("event-kernel microbench (%llu events/kernel, "
                "fig07-shaped pattern)\n",
                (unsigned long long)events);
    std::printf("  %-22s %12.3f Mevents/s\n", "legacy (pre-arena)",
                legacy.eventsPerSec() / 1e6);
    std::printf("  %-22s %12.3f Mevents/s\n", "ladder",
                ladder.eventsPerSec() / 1e6);
    std::printf("  ladder vs legacy: %.2fx\n", ratio);

    if (!bench_json.empty()) {
        const std::string record = csprintf(
            "{\"figure\": \"ubench_event_kernel\", "
            "\"events\": %llu, "
            "\"legacy_events_per_s\": %.6g, "
            "\"events_per_s\": %.6g, "
            "\"ratio_vs_legacy\": %.4g}",
            (unsigned long long)events, legacy.eventsPerSec(),
            ladder.eventsPerSec(), ratio);
        if (!sweep::appendBenchJson(bench_json, record)) {
            std::fprintf(stderr,
                         "ubench_event_kernel: cannot write %s\n",
                         bench_json.c_str());
            return 1;
        }
    }
    return 0;
}
