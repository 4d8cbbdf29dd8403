#include "sim/event.hh"

#include "check/invariant.hh"
#include "common/logging.hh"

namespace kmu
{

Event::Event(std::string name, EventPriority priority)
    : ownedName(std::move(name)), eventName(ownedName), prio(priority)
{
}

Event::~Event()
{
    // Owners must deschedule before destroying; we cannot reach the
    // queue from here, so just flag misuse.
    if (isScheduled)
        panic("event '%.*s' destroyed while scheduled",
              int(eventName.size()), eventName.data());
}

EventQueue::~EventQueue()
{
    // Disarm events still scheduled at teardown so their destructors
    // don't flag queue misuse, and drop owned lambda callables (the
    // arena slabs below free the slots themselves). Cancelled entries
    // may point at events that were since destroyed, so those are
    // skipped by seq without ever touching the pointer.
    auto disarm = [this](const sched::Entry &entry) {
        if (cancelledSeqs.erase(entry.seq))
            return;
        entry.event->isScheduled = false;
        if (entry.event->ownedByQueue)
            static_cast<LambdaEvent *>(entry.event)->dispose();
    };
    ladder.forEachEntry(disarm);
    // The slabs free their slots next; lift the freelist poison so
    // the slot destructors and the deallocation see plain memory.
    // Slots still bound but never scheduled (parked waiters) are
    // disposed by their destructors, exactly once.
    for (auto &slab : slabs) {
        for (std::size_t i = 0; i < slabSize; ++i)
            kmuSanUnpoisonRegion(slab[i].store, sizeof(slab[i].store));
    }
}

void
EventQueue::deschedule(Event *event)
{
    KMU_INVARIANT(event->isScheduled,
                  "descheduling idle event '%.*s'",
                  int(event->eventName.size()), event->eventName.data());
    KMU_INVARIANT(liveEvents > 0,
                  "live event count underflow descheduling '%.*s'",
                  int(event->eventName.size()), event->eventName.data());
    event->isScheduled = false;
    cancelledSeqs.insert(event->entrySeq); // invalidates the entry
    liveEvents--;

    // A descheduled one-shot lambda can never run; recycle its slot
    // now instead of parking it until queue destruction (the old
    // behaviour leaked a slot per cancelled timeout guard). The dead
    // scheduler entry is recognised by seq alone, so reuse is safe.
    if (event->ownedByQueue) {
        KMU_INVARIANT(ownedLive > 0,
                      "owned event count underflow descheduling '%.*s'",
                      int(event->eventName.size()),
                      event->eventName.data());
        ownedLive--;
        releaseLambda(static_cast<LambdaEvent *>(event));
    }

    // Keep the dead fraction of the scheduler bounded. Without this,
    // a workload that schedules far-future events and cancels them
    // before they pop (timeout guards, speculative wakeups) grows the
    // scheduler and cancelledSeqs without bound even though
    // liveEvents stays flat. The floor of 64 keeps small churny
    // queues on the cheap lazy path.
    if (cancelledSeqs.size() > 64 && cancelledSeqs.size() > liveEvents)
        compact();
}

void
EventQueue::compact()
{
    ladder.compact(cancelledSeqs);
    KMU_MODEL_CHECK(cancelledSeqs.empty(),
                    "%zu cancelled seqs match no scheduler entry",
                    cancelledSeqs.size());
    KMU_MODEL_CHECK(ladder.size() == liveEvents,
                    "compaction kept %zu entries for %llu live events",
                    ladder.size(), (unsigned long long)liveEvents);
    // Swap in a fresh set: clear() keeps the grown bucket array.
    sched::CancelSet().swap(cancelledSeqs);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->isScheduled)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::growArena()
{
    slabs.push_back(std::make_unique<LambdaEvent[]>(slabSize));
    LambdaEvent *slab = slabs.back().get();
    for (std::size_t i = slabSize; i-- > 0;) {
        kmuSanPoisonRegion(slab[i].store, sizeof(slab[i].store));
        slab[i].next = freeLambdas;
        freeLambdas = &slab[i];
    }
}

void
EventQueue::servicePeeked(const sched::Entry &entry)
{
    Event *ev = entry.event;

    // Every scheduler entry is exactly one of: live (its event
    // scheduled, entrySeq matching) or cancelled (seq parked in
    // cancelledSeqs).
    KMU_MODEL_CHECK(ladder.size() == liveEvents + cancelledSeqs.size(),
                    "scheduler holds %zu entries but %llu live + %zu "
                    "cancelled events are booked", ladder.size(),
                    (unsigned long long)liveEvents,
                    cancelledSeqs.size());

    KMU_INVARIANT(entry.when >= now,
                  "event queue time went backwards (%llu < %llu)",
                  (unsigned long long)entry.when,
                  (unsigned long long)now);
    KMU_MODEL_CHECK(ev->scheduledAt == entry.when,
                    "event '%.*s' services at %llu but was booked for "
                    "%llu", int(ev->eventName.size()),
                    ev->eventName.data(),
                    (unsigned long long)entry.when,
                    (unsigned long long)ev->scheduledAt);
    ladder.popFront();
    now = entry.when;
    ev->isScheduled = false;
    liveEvents--;
    servicedCount++;

    // Tag dispatch: the two hot event shapes (one-shot lambdas and
    // component CallbackEvents) are invoked directly; everything else
    // takes the virtual process() path.
    switch (ev->kind) {
      case Event::Kind::Lambda: {
        auto *le = static_cast<LambdaEvent *>(ev);
        KMU_INVARIANT(ownedLive > 0,
                      "owned event count underflow servicing '%.*s'",
                      int(le->eventName.size()), le->eventName.data());
        ownedLive--;
        le->invoke();
        // One-shot lambdas are recycled once they have run; a
        // LambdaEvent never reschedules itself (user code has no
        // pointer to it).
        releaseLambda(le);
        break;
      }
      case Event::Kind::Callback:
        static_cast<CallbackEvent *>(ev)->invokeCallback();
        break;
      case Event::Kind::Virtual:
        ev->process();
        break;
    }
}

bool
EventQueue::serviceOne()
{
    sched::Entry entry;
    if (!peek(entry))
        return false;
    servicePeeked(entry);
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    sched::Entry entry;
    while (peek(entry)) {
        if (entry.when > limit)
            break;
        servicePeeked(entry);
    }
    return now;
}

} // namespace kmu
