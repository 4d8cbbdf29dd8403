/**
 * @file
 * Event and EventQueue: the discrete-event simulation kernel.
 *
 * The kernel is deliberately small and deterministic. Events are
 * ordered by (tick, priority, insertion sequence), so two runs of the
 * same configuration produce identical schedules. Components own their
 * Event objects and schedule them on the queue; one-shot lambda events
 * are also supported for glue logic.
 *
 * The hot path is allocation-free after warmup: one-shot lambdas live
 * in a slab-recycled arena (LambdaEvent), callables up to 64 bytes
 * are stored inline without a std::function, event names are views
 * of storage that outlives the event, and dispatch goes through a
 * kind tag instead of a virtual call. A component may also bind a
 * continuation into an arena slot without scheduling it (bindLambda),
 * park the slot, and later schedule it or run it in place (runBound).
 * Pending events sit in a ladder (hierarchical calendar) scheduler —
 * see sim/scheduler.hh for the structure and the service-order proof.
 */

#ifndef KMU_SIM_EVENT_HH
#define KMU_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sanitizer.hh"
#include "common/types.hh"
#include "sim/scheduler.hh"

namespace kmu
{

class EventQueue;

/** Scheduling priority; lower values service first within a tick. */
enum class EventPriority : std::int32_t
{
    DeviceResponse = -20, //!< deliver data before consumers run
    Default = 0,
    CpuTick = 10,         //!< core progress after deliveries
    Stats = 100           //!< end-of-tick accounting
};

/**
 * Name of a one-shot lambda event: a view of a string literal or of a
 * string that outlives every event scheduled under it — in practice a
 * SimObject's cached name member. Nothing is copied per schedule;
 * binding a temporary std::string is a compile-time error, since the
 * view would dangle once the statement ends.
 */
class EventName
{
  public:
    template <std::size_t N>
    constexpr EventName(const char (&literal)[N]) : text(literal, N - 1)
    {
    }
    EventName(const std::string &cached) : text(cached) {}
    EventName(std::string &&) = delete;

    std::string_view view() const { return text; }

  private:
    std::string_view text;
};

/**
 * Base class for all schedulable work.
 *
 * An Event may be scheduled on at most one queue at a time. The queue
 * never owns Events derived from this class; their owner must keep
 * them alive while scheduled.
 */
class Event
{
  public:
    explicit Event(std::string name = "anon",
                   EventPriority prio = EventPriority::Default);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event's tick arrives. */
    virtual void process() = 0;

    std::string_view name() const { return eventName; }
    EventPriority priority() const { return prio; }
    bool scheduled() const { return isScheduled; }

    /** Tick this event is scheduled for (valid only if scheduled()). */
    Tick when() const { return scheduledAt; }

  protected:
    /**
     * Dispatch tag: the queue services the known subclasses through
     * a direct (devirtualized) call. Subclasses other than the two
     * below always take the virtual process() path.
     */
    enum class Kind : std::uint8_t
    {
        Virtual = 0,  //!< dispatch via virtual process()
        Callback = 1, //!< CallbackEvent: direct std::function call
        Lambda = 2    //!< LambdaEvent: inline-stored callable
    };

  private:
    friend class EventQueue;

    std::string ownedName;       //!< storage behind a constructed name
    std::string_view eventName;  //!< ownedName, or an EventName view
    EventPriority prio;
    Kind kind = Kind::Virtual;
    bool isScheduled = false;
    bool ownedByQueue = false; //!< queue recycles it after it runs
    Tick scheduledAt = 0;
    std::uint64_t entrySeq = 0; //!< seq of the live scheduler entry

  protected:
    /** Subclass constructors claim their dispatch tag here. */
    void setKind(Kind k) { kind = k; }
};

/** Event whose process() runs a bound callable. */
class CallbackEvent : public Event
{
  public:
    CallbackEvent(std::string name, std::function<void()> fn,
                  EventPriority priority = EventPriority::Default)
        : Event(std::move(name), priority), callback(std::move(fn))
    {
        setKind(Kind::Callback);
    }

    void process() override { callback(); }

  private:
    friend class EventQueue;

    /** Tag-dispatch fast path: skips the vtable. */
    void invokeCallback() { callback(); }

    std::function<void()> callback;
};

/**
 * Arena-recycled one-shot event backing EventQueue::scheduleLambda
 * and EventQueue::bindLambda.
 *
 * The callable is stored inline (no std::function, no heap) when it
 * fits `inlineBytes`; larger captures fall back to a single heap
 * allocation. Slots are recycled through a freelist and the name is
 * a view (EventName), so a steady-state bind/schedule/service cycle
 * performs no allocation at all. While a slot sits on the freelist
 * its inline store is poisoned for ASan. Only EventQueue creates
 * these; components hold the pointer only between bindLambda and
 * the schedule() or runBound() that hands the slot back.
 */
class LambdaEvent final : public Event
{
  public:
    LambdaEvent() : Event(std::string()) { setKind(Kind::Lambda); }

    ~LambdaEvent() override { dispose(); }

    void process() override { invoke(); }

    /** Bytes of callable stored without a heap spill. */
    static constexpr std::size_t inlineBytes = 64;

  private:
    friend class EventQueue;
    friend class BoundFifo;

    template <typename F>
    void
    bind(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            // Placement-new into the inline slot; destroyed via
            // disposePtr, never deleted.
            // kmu-analyze: allow(raw-new)
            ::new (static_cast<void *>(store))
                Fn(std::forward<F>(fn));
            invokePtr = [](LambdaEvent &e) {
                (*std::launder(reinterpret_cast<Fn *>(e.store)))();
            };
            disposePtr = [](LambdaEvent &e) {
                std::launder(reinterpret_cast<Fn *>(e.store))->~Fn();
            };
        } else {
            // Type-erased spill slot; paired with the delete in
            // disposePtr below.
            // kmu-analyze: allow(raw-new)
            heapObj = new Fn(std::forward<F>(fn));
            invokePtr = [](LambdaEvent &e) {
                (*static_cast<Fn *>(e.heapObj))();
            };
            disposePtr = [](LambdaEvent &e) {
                // kmu-analyze: allow(raw-new)
                delete static_cast<Fn *>(e.heapObj);
                e.heapObj = nullptr;
            };
        }
    }

    void invoke() { invokePtr(*this); }

    /** Destroy the bound callable (idempotent). */
    void
    dispose()
    {
        if (disposePtr) {
            disposePtr(*this);
            disposePtr = nullptr;
            invokePtr = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char store[inlineBytes];
    void *heapObj = nullptr;
    void (*invokePtr)(LambdaEvent &) = nullptr;
    void (*disposePtr)(LambdaEvent &) = nullptr;
    /** Freelist link while recycled, BoundFifo link while parked. */
    LambdaEvent *next = nullptr;
};

/**
 * FIFO of bound, unscheduled lambda slots (EventQueue::bindLambda),
 * linked through the slots themselves, so parking a waiter allocates
 * nothing. The queue that bound a slot still owns it: popped slots
 * go back through EventQueue::schedule() or runBound(), and a slot
 * still parked at queue teardown is destroyed with the arena.
 */
class BoundFifo
{
  public:
    bool empty() const { return head == nullptr; }
    std::size_t size() const { return count; }

    void
    push(LambdaEvent *ev)
    {
        ev->next = nullptr;
        if (tail)
            tail->next = ev;
        else
            head = ev;
        tail = ev;
        ++count;
    }

    /** Oldest parked slot; the FIFO must not be empty. */
    LambdaEvent *
    pop()
    {
        LambdaEvent *ev = head;
        head = ev->next;
        if (!head)
            tail = nullptr;
        ev->next = nullptr;
        --count;
        return ev;
    }

  private:
    LambdaEvent *head = nullptr;
    LambdaEvent *tail = nullptr;
    std::size_t count = 0;
};

/**
 * Deterministic time-ordered event queue.
 *
 * Descheduling is lazy: the scheduler entry's unique sequence number
 * is recorded as cancelled and the entry is skipped when met. Dead
 * entries are recognised by sequence number alone — the queue never
 * dereferences an event through a cancelled entry, so an event may be
 * destroyed any time after it is descheduled.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    /** Current simulated time. */
    Tick curTick() const { return now; }

    /** Schedule @p event at absolute tick @p when (>= curTick()). */
    void
    schedule(Event *event, Tick when)
    {
        KMU_INVARIANT(!event->isScheduled,
                      "event '%.*s' scheduled twice",
                      int(event->eventName.size()),
                      event->eventName.data());
        KMU_INVARIANT(when >= now,
                      "event '%.*s' scheduled in the past (%llu < %llu)",
                      int(event->eventName.size()),
                      event->eventName.data(), (unsigned long long)when,
                      (unsigned long long)now);
        event->isScheduled = true;
        event->scheduledAt = when;
        event->entrySeq = nextSeq;
        const sched::Entry entry{when, std::int32_t(event->prio),
                                 nextSeq++, event};
        ladder.insert(entry);
        liveEvents++;
        if (event->ownedByQueue)
            ownedLive++;
    }

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and schedule at a new tick. */
    void reschedule(Event *event, Tick when);

    /**
     * Bind a one-shot callable into an arena slot without scheduling
     * it. The slot takes its seq when it is passed to schedule(), not
     * here, so a waiter parked now keeps the order it would have had
     * if its callable had been handed over at schedule time. The
     * caller must eventually schedule() the slot or runBound() it;
     * a slot never handed back is destroyed at queue teardown.
     * @p name must outlive the slot (see EventName).
     */
    template <typename F>
    LambdaEvent *
    bindLambda(F &&fn, EventPriority prio = EventPriority::Default,
               EventName name = "lambda")
    {
        LambdaEvent *ev = acquireLambda();
        ev->eventName = name.view();
        ev->prio = prio;
        ev->bind(std::forward<F>(fn));
        ev->ownedByQueue = true;
        return ev;
    }

    /**
     * Schedule a one-shot callable; the queue owns the backing
     * arena slot and recycles it after the callable runs (or on
     * deschedule, or at queue destruction if never reached).
     */
    template <typename F>
    void
    scheduleLambda(Tick when, F &&fn,
                   EventPriority prio = EventPriority::Default,
                   EventName name = "lambda")
    {
        schedule(bindLambda(std::forward<F>(fn), prio, name), when);
    }

    /**
     * Run a bound, unscheduled slot now, on the caller's stack, and
     * recycle it. Not an event service: no seq, no serviced() count.
     */
    void
    runBound(LambdaEvent *ev)
    {
        KMU_INVARIANT(ev->ownedByQueue && ev->invokePtr &&
                          !ev->isScheduled,
                      "runBound of a released or scheduled slot '%.*s'",
                      int(ev->eventName.size()), ev->eventName.data());
        ev->invoke();
        releaseLambda(ev);
    }

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents == 0; }

    /** Number of currently scheduled events. */
    std::uint64_t size() const { return liveEvents; }

    /** Service the single next event; returns false if none remain. */
    bool serviceOne();

    /**
     * Run until the queue drains or curTick() would exceed @p limit.
     * @return the tick of the last serviced event.
     */
    Tick run(Tick limit = maxTick);

    /** Total events serviced since construction. */
    std::uint64_t serviced() const { return servicedCount; }

    /** Cancelled scheduler entries not yet met or compacted
     *  (bounded: see deschedule()'s compaction trigger). */
    std::size_t deadEntries() const { return cancelledSeqs.size(); }

    /** Owned one-shot lambdas currently scheduled (bounded by
     *  size(): a descheduled lambda is recycled immediately). */
    std::uint64_t ownedPending() const { return ownedLive; }

  private:
    /**
     * Drop every cancelled entry from the scheduler. Lazy
     * descheduling alone lets dead entries accumulate without bound
     * when a workload schedules and cancels far-future events (e.g.
     * timeout guards that almost never fire) faster than the
     * scheduler meets them. deschedule() triggers this once the dead
     * entries outnumber the live ones (and exceed a floor), which
     * amortizes the O(n) walk to O(1) per deschedule and keeps
     * scheduler memory proportional to live events.
     */
    void compact();

    /** Take a recycled (or fresh) arena slot. */
    LambdaEvent *
    acquireLambda()
    {
        if (!freeLambdas)
            growArena();
        LambdaEvent *ev = freeLambdas;
        freeLambdas = ev->next;
        ev->next = nullptr;
        kmuSanUnpoisonRegion(ev->store, sizeof(ev->store));
        return ev;
    }

    /** Thread a fresh slab of slots onto the freelist. */
    void growArena();

    /** Destroy the callable and return the slot to the freelist. */
    void
    releaseLambda(LambdaEvent *ev)
    {
        ev->dispose();
        ev->ownedByQueue = false;
        kmuSanPoisonRegion(ev->store, sizeof(ev->store));
        ev->next = freeLambdas;
        freeLambdas = ev;
    }

    /** Service the entry a successful peek() exposed. */
    void servicePeeked(const sched::Entry &entry);

    bool peek(sched::Entry &out) { return ladder.peek(out, cancelledSeqs); }

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t liveEvents = 0;
    std::uint64_t servicedCount = 0;
    std::uint64_t ownedLive = 0;

    sched::LadderScheduler ladder;

    /** Seqs of descheduled scheduler entries not yet met. */
    sched::CancelSet cancelledSeqs;

    /** @{ One-shot lambda arena: fixed slabs + freelist. */
    static constexpr std::size_t slabSize = 64;
    std::vector<std::unique_ptr<LambdaEvent[]>> slabs;
    LambdaEvent *freeLambdas = nullptr;
    /** @} */
};

} // namespace kmu

#endif // KMU_SIM_EVENT_HH
