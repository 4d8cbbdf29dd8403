/**
 * @file
 * Line Fill Buffer (MSHR) model.
 *
 * Intel cores track outstanding L1 misses — demand loads and software
 * prefetches alike — in a small set of Line Fill Buffers (10 per core
 * on the Xeon E5 v3 parts the paper measures). The LFB is the first
 * hardware queue a prefetch-based device access meets, and its size is
 * the paper's headline single-core bottleneck (Fig. 3/4/6).
 *
 * Semantics modelled here:
 *  - an entry is allocated per in-flight line and freed on fill;
 *  - requests to an already-pending line merge into that entry
 *    (secondary misses coalesce, consuming no extra entry);
 *  - a software prefetch that finds all entries busy is *dropped*
 *    (x86 prefetch hints are non-binding), so the eventual demand
 *    load takes the full miss path;
 *  - a demand load that finds the LFB full must wait for a free
 *    entry before it can even issue.
 */

#ifndef KMU_MEM_LFB_HH
#define KMU_MEM_LFB_HH

#include <utility>
#include <vector>

#include "sim/sim_object.hh"

namespace kmu
{

class Lfb : public SimObject
{
  public:
    /** Outcome of an allocation attempt. */
    enum class AllocResult
    {
        NewEntry,  //!< entry allocated; caller must issue downstream
        Merged,    //!< line already in flight; callback attached
        NoEntry    //!< all entries busy (prefetch: drop; load: wait)
    };

    Lfb(std::string name, EventQueue &queue, std::uint32_t capacity,
        StatGroup *stat_parent);

    std::uint32_t capacity() const { return cap; }
    std::uint32_t inUse() const { return used; }
    bool full() const { return used >= cap; }

    /** True iff a miss to @p line is currently outstanding. */
    bool pending(Addr line) const { return find(line) != noSlot; }

    /**
     * Try to allocate (or merge into) an entry for @p line.
     *
     * On NewEntry the caller is responsible for issuing the request
     * downstream and eventually calling fill(line). On Merged or
     * NewEntry, @p cb fires when the line's data arrives: it is bound
     * into the event arena and parked on the entry, in FIFO order
     * with the entry's other waiters. On NoEntry nothing is recorded.
     */
    template <typename F>
    AllocResult
    request(Addr line, F &&cb)
    {
        std::uint32_t slot = noSlot;
        const AllocResult result = claim(line, slot);
        if (result != AllocResult::NoEntry) {
            table[slot].waiters.push(eventQueue().bindLambda(
                std::forward<F>(cb), EventPriority::Default, fillName));
        }
        return result;
    }

    /**
     * Register @p cb to run as soon as any entry is free. Used by
     * demand misses that must stall on a full LFB. Callbacks fire in
     * FIFO order, one per freed entry.
     */
    template <typename F>
    void
    waitForFree(F &&cb)
    {
        if (!full()) {
            // An entry is already free; run the callback this tick
            // but off the current call stack for re-entrancy safety.
            eventQueue().scheduleLambda(curTick(), std::forward<F>(cb),
                                        EventPriority::Default,
                                        freeNowName);
            return;
        }
        freeWaiters.push(eventQueue().bindLambda(
            std::forward<F>(cb), EventPriority::Default, freeNowName));
    }

    /** Data for @p line arrived; wake waiters and free the entry. */
    void fill(Addr line);

    /** @{ Occupancy statistics. */
    Counter allocs;
    Counter merges;
    Counter rejections;
    Counter fills;
    Average occupancyAtAlloc;
    /** @} */

  private:
    /** Cached event names: the fill path runs per access. */
    const std::string freeNowName = name() + ".freeNow";
    const std::string fillName = name() + ".fill";

    /** One line fill buffer: a table slot, live while its miss is
     *  in flight. */
    struct Entry
    {
        Addr line = 0;
        bool live = false;
        BoundFifo waiters; //!< fill callbacks, run in FIFO order
    };

    static constexpr std::uint32_t noSlot = ~0u;

    /** Table slot of the live entry for @p line, or noSlot. */
    std::uint32_t find(Addr line) const;

    /** Merge into or allocate an entry for @p line (the accounting
     *  of request()); @p slot names the entry. */
    AllocResult claim(Addr line, std::uint32_t &slot);

    std::uint32_t cap;
    std::uint32_t used = 0;
    std::vector<Entry> table; //!< cap slots, fixed at construction
    BoundFifo freeWaiters;
};

} // namespace kmu

#endif // KMU_MEM_LFB_HH
