/**
 * @file
 * Chip-level shared request queue.
 *
 * Between the per-core LFBs and the off-chip interface sits a shared
 * hardware queue. The paper measured its maximum occupancy on the
 * PCIe path experimentally as 14 entries — shared among *all* cores —
 * which is the multicore bottleneck of the prefetch mechanism
 * (Fig. 5). The equivalent queue on the DRAM path is much deeper
 * (at least 48 entries were observed outstanding).
 *
 * A slot is held from injection until the response returns on-chip.
 * Requests that find the queue full wait in FIFO order.
 */

#ifndef KMU_MEM_UNCORE_QUEUE_HH
#define KMU_MEM_UNCORE_QUEUE_HH

#include <utility>

#include "sim/sim_object.hh"

namespace kmu
{

class UncoreQueue : public SimObject
{
  public:
    UncoreQueue(std::string name, EventQueue &queue, std::uint32_t capacity,
                StatGroup *stat_parent);

    std::uint32_t capacity() const { return cap; }
    std::uint32_t inUse() const { return used; }
    bool full() const { return used >= cap; }
    std::size_t waiting() const { return waiters.size(); }

    /**
     * Acquire a slot. If one is free the callback runs immediately
     * (same tick, off-stack); otherwise it queues FIFO behind other
     * waiters and runs when a slot is released. The callback is
     * bound into the event arena now and parked there while it
     * waits; the grant schedules that slot.
     */
    template <typename F>
    void
    acquire(F &&cb)
    {
        acquireBound(eventQueue().bindLambda(
            std::forward<F>(cb), EventPriority::Default, enterName));
    }

    /** Release a slot (response left the queue); admits one waiter. */
    void release();

    /** @{ Occupancy statistics. */
    Counter entries;
    Counter fullStalls;
    Average occupancy;
    /** @} */

    /** Highest simultaneous occupancy seen. */
    std::uint32_t peakOccupancy() const { return peak; }

    /** Cumulative slots released; entries - released == inUse(). */
    std::uint64_t totalReleases() const { return releasedCount; }

  private:
    /** Cached "<name>.enter": the grant path runs per access. */
    const std::string enterName = name() + ".enter";

    /** Grant or park a bound request. */
    void acquireBound(LambdaEvent *entered);

    /** Take a slot for @p entered and schedule it this tick. */
    void grant(LambdaEvent *entered);

    const std::uint32_t cap;
    std::uint32_t used = 0;
    std::uint32_t peak = 0;
    std::uint64_t releasedCount = 0;
    BoundFifo waiters;
};

} // namespace kmu

#endif // KMU_MEM_UNCORE_QUEUE_HH
