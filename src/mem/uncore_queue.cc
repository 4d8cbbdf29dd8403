#include "mem/uncore_queue.hh"

#include "check/invariant.hh"
#include "trace/trace.hh"

namespace kmu
{

UncoreQueue::UncoreQueue(std::string name, EventQueue &queue,
                         std::uint32_t capacity, StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      entries(stats(), "entries", "requests that acquired a slot"),
      fullStalls(stats(), "full_stalls",
                 "requests that had to wait for a free slot"),
      occupancy(stats(), "occupancy", "slots in use at acquire time"),
      cap(capacity)
{
    kmuAssert(capacity > 0, "uncore queue capacity must be positive");
}

void
UncoreQueue::grant(LambdaEvent *entered)
{
    used++;
    KMU_INVARIANT(used <= cap,
                  "uncore queue occupancy %u exceeds capacity %u",
                  used, cap);
    peak = std::max(peak, used);
    ++entries;
    occupancy.sample(double(used));
    // Grants and releases are not FIFO-matched per request, so the
    // trace carries instants with the depth as payload rather than
    // per-request spans.
    trace::instant(trace::Kind::UncoreEnter, entries.value(),
                   traceTrack(), used);
    // Conservation: every slot in use was granted and not released.
    KMU_MODEL_CHECK(entries.value() - releasedCount == used,
                    "uncore slots in use %u != granted %llu - "
                    "released %llu", used,
                    (unsigned long long)entries.value(),
                    (unsigned long long)releasedCount);
    // Run off the current stack so release() inside the callback
    // cannot recurse into waiter admission mid-flight.
    eventQueue().schedule(entered, curTick());
}

void
UncoreQueue::acquireBound(LambdaEvent *entered)
{
    if (!full()) {
        grant(entered);
        return;
    }
    ++fullStalls;
    trace::instant(trace::Kind::UncoreStall, fullStalls.value(),
                   traceTrack(), used);
    waiters.push(entered);
}

void
UncoreQueue::release()
{
    KMU_INVARIANT(used > 0, "release on an empty uncore queue");
    used--;
    releasedCount++;
    if (!waiters.empty())
        grant(waiters.pop());
    // Nobody may wait while a slot is free (would be a lost wakeup).
    KMU_MODEL_CHECK(waiters.empty() || full(),
                    "%zu waiters stalled on a non-full uncore queue "
                    "(%u/%u in use)", waiters.size(), used, cap);
}

} // namespace kmu
