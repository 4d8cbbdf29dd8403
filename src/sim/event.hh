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
 * in a slab-recycled arena (LambdaEvent) whose slots keep their name
 * strings' capacity across reuse, callables up to 48 bytes are stored
 * inline without a std::function, and dispatch goes through a kind
 * tag instead of a virtual call. Pending events sit in a ladder
 * (hierarchical calendar) scheduler — see sim/scheduler.hh for the
 * structure and the service-order proof.
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

    const std::string &name() const { return eventName; }
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

    std::string eventName;
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
 * Arena-recycled one-shot event backing EventQueue::scheduleLambda.
 *
 * The callable is stored inline (no std::function, no heap) when it
 * fits `inlineBytes`; larger captures fall back to a single heap
 * allocation. Slots are recycled through a freelist, and the name
 * string keeps its capacity across reuse, so a steady-state schedule/
 * service cycle performs no allocation at all. Only EventQueue
 * creates these; user code never sees the pointer.
 */
class LambdaEvent final : public Event
{
  public:
    LambdaEvent() : Event("lambda") { setKind(Kind::Lambda); }

    ~LambdaEvent() override { dispose(); }

    void process() override { invoke(); }

  private:
    friend class EventQueue;

    static constexpr std::size_t inlineBytes = 48;

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
    LambdaEvent *nextFree = nullptr; //!< arena freelist link
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
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and schedule at a new tick. */
    void reschedule(Event *event, Tick when);

    /**
     * Schedule a one-shot callable; the queue owns the backing
     * arena slot and recycles it after the callable runs (or on
     * deschedule, or at queue destruction if never reached). @p name
     * is copied into recycled storage — pass a cached string for hot
     * paths and the call is allocation-free.
     */
    template <typename F>
    void
    scheduleLambda(Tick when, F &&fn,
                   EventPriority prio = EventPriority::Default,
                   std::string_view name = "lambda")
    {
        LambdaEvent *ev = acquireLambda();
        ev->eventName.assign(name.data(), name.size());
        ev->prio = prio;
        ev->bind(std::forward<F>(fn));
        ev->ownedByQueue = true;
        schedule(ev, when);
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
    LambdaEvent *acquireLambda();

    /** Destroy the callable and return the slot to the freelist. */
    void releaseLambda(LambdaEvent *ev);

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
