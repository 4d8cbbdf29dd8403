#include "mem/lfb.hh"

#include "check/invariant.hh"
#include "trace/trace.hh"

namespace kmu
{

Lfb::Lfb(std::string name, EventQueue &queue, std::uint32_t capacity,
         StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      allocs(stats(), "allocs", "LFB entries allocated"),
      merges(stats(), "merges", "requests merged into pending entries"),
      rejections(stats(), "rejections", "requests that found LFB full"),
      fills(stats(), "fills", "entries filled and freed"),
      occupancyAtAlloc(stats(), "occupancy_at_alloc",
                       "entries in use when a new entry was allocated"),
      cap(capacity), table(capacity)
{
    kmuAssert(capacity > 0, "LFB capacity must be positive");
}

std::uint32_t
Lfb::find(Addr line) const
{
    for (std::uint32_t i = 0; i < cap; ++i) {
        if (table[i].live && table[i].line == line)
            return i;
    }
    return noSlot;
}

Lfb::AllocResult
Lfb::claim(Addr line, std::uint32_t &slot)
{
    slot = find(line);
    if (slot != noSlot) {
        ++merges;
        trace::instant(trace::Kind::LfbMerge, line, traceTrack());
        return AllocResult::Merged;
    }
    if (full()) {
        ++rejections;
        trace::instant(trace::Kind::LfbReject, line, traceTrack(),
                       inUse());
        return AllocResult::NoEntry;
    }
    occupancyAtAlloc.sample(double(inUse()));
    trace::begin(trace::Kind::LfbResident, line, traceTrack(),
                 inUse());
    slot = 0;
    while (table[slot].live)
        ++slot;
    table[slot].line = line;
    table[slot].live = true;
    used++;
    ++allocs;
    KMU_INVARIANT(inUse() <= cap,
                  "LFB occupancy %u exceeds capacity %u", inUse(), cap);
    // Conservation: every live entry was allocated and not yet filled.
    KMU_MODEL_CHECK(allocs.value() - fills.value() == inUse(),
                    "LFB in-flight count %u != allocated %llu - "
                    "filled %llu", inUse(),
                    (unsigned long long)allocs.value(),
                    (unsigned long long)fills.value());
    return AllocResult::NewEntry;
}

void
Lfb::fill(Addr line)
{
    const std::uint32_t slot = find(line);
    KMU_INVARIANT(slot != noSlot,
                  "fill for line %#llx with no LFB entry",
                  (unsigned long long)line);

    // Detach before invoking callbacks: a waiter may re-request.
    Entry &entry = table[slot];
    BoundFifo waiters = std::exchange(entry.waiters, BoundFifo{});
    entry.live = false;
    used--;
    ++fills;
    trace::end(trace::Kind::LfbResident, line, traceTrack(),
               std::uint32_t(waiters.size()));

    while (!waiters.empty())
        eventQueue().runBound(waiters.pop());

    // One freed entry admits one waiting demand miss.
    if (!freeWaiters.empty() && !full())
        eventQueue().runBound(freeWaiters.pop());
    KMU_MODEL_CHECK(allocs.value() - fills.value() == inUse(),
                    "LFB in-flight count %u != allocated %llu - "
                    "filled %llu", inUse(),
                    (unsigned long long)allocs.value(),
                    (unsigned long long)fills.value());
}

} // namespace kmu
