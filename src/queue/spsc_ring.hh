/**
 * @file
 * Bounded single-producer / single-consumer ring buffer.
 *
 * This is the in-host-memory structure backing both the Request Queue
 * (host produces, device consumes) and the Completion Queue (device
 * produces, host consumes). It is lock-free with acquire/release
 * atomics so the real runtime can run the device emulator on another
 * OS thread; used single-threadedly by the timing model, the atomics
 * compile down to plain loads/stores.
 *
 * Capacity must be a power of two. One slot is sacrificed to
 * distinguish full from empty.
 *
 * Layout: one cache line per side. The producer line holds head,
 * pushes and rejects, plus the producer's cached view of tail and
 * pops; the consumer line holds tail and pops, plus its cached view
 * of head and pushes. A side writes only its own line and reads the
 * other side's only when its cached view says the ring is full (the
 * producer) or empty (the consumer), so in steady state a push or pop
 * touches one line the other thread writes: the slot itself.
 *
 * Memory-ordering audit (the two synchronization edges):
 *
 *  1. producer publishes a slot:   slots[h] = v;  head.store(release)
 *     consumer observes it:        head.load(acquire);  read slots[t]
 *     The release/acquire pair on `head` guarantees the slot write
 *     is visible before the consumer can see the advanced head, so
 *     the consumer never reads a half-written slot. A cached head
 *     was obtained by such an acquire load, so every slot below it
 *     stays safe to read for as long as the cache is used.
 *
 *  2. consumer retires a slot:     out = slots[t];  tail.store(release)
 *     producer observes it:        tail.load(acquire);  write slots[h]
 *     The release/acquire pair on `tail` guarantees the consumer has
 *     fully read a slot before the producer can see the advanced tail
 *     and overwrite it. A cached tail only lags the live one, so it
 *     can make the ring look fuller than it is (the producer then
 *     refreshes), never let the producer overwrite an unread slot.
 *
 *  Each side loads its *own* index relaxed (single writer: the value
 *  is always its own last store, so no synchronization is needed).
 *  Each cumulative counter has one writer too, so it is bumped with a
 *  relaxed load and store (no locked read-modify-write), before that
 *  side's index release-store. A refresh acquire-loads the other
 *  side's index and then reads its counter, so the cached counter is
 *  at least the count that index stands for. The occupancy checks
 *  compare against the cached counter; it can only lag the live one,
 *  so they are at least as strict as checks against the live counter
 *  and still hold in a correct ring:
 *   - producer: pushes - cachedPops <= capacity, because a push
 *     succeeds only while the cached tail leaves a free slot;
 *   - consumer: pops <= cachedPushes, because a pop succeeds only
 *     below the cached head.
 *
 *  size() uses two acquire loads but still only yields a snapshot:
 *  exact when single-threaded, approximate (bounded by capacity)
 *  under concurrency.
 */

#ifndef KMU_QUEUE_SPSC_RING_HH
#define KMU_QUEUE_SPSC_RING_HH

#include <atomic>
#include <cstddef>
#include <vector>

#include "check/invariant.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"

namespace kmu
{

template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity)
        : slots(capacity), mask(capacity - 1)
    {
        kmuAssert(isPowerOf2(capacity),
                  "SPSC ring capacity must be a power of two");
        kmuAssert(capacity >= 2, "SPSC ring needs at least two slots");
    }

    /** Usable capacity (one slot is reserved). */
    std::size_t capacity() const { return slots.size() - 1; }

    /** @{
     * Role capabilities: exactly one context may act as producer and
     * one as consumer at any time. Callers of the gated functions
     * below assert the role with a RoleGuard; clang's thread-safety
     * analysis rejects call paths that reach them role-less.
     */
    ThreadRole producerRole;
    ThreadRole consumerRole;
    /** @} */

    /** Producer: true on success, false when full. */
    bool
    tryPush(const T &value) KMU_REQUIRES(producerRole)
    {
        const std::size_t h = head.load(std::memory_order_relaxed);
        KMU_INVARIANT(h < slots.size(),
                      "ring head index %zu out of range", h);
        const std::size_t next = (h + 1) & mask;
        if (next == tailCache) {
            // Full by the cached view: refresh it (edge 2).
            tailCache = tail.load(std::memory_order_acquire);
            popsCache = pops.load(std::memory_order_relaxed);
            if (next == tailCache) {
                bumpSingleWriter(rejects);
                return false;
            }
        }
        slots[h] = value;
        bumpSingleWriter(pushes);
        head.store(next, std::memory_order_release);
        KMU_MODEL_CHECK(pushes.load(std::memory_order_relaxed) -
                                popsCache <=
                            capacity(),
                        "ring occupancy exceeds capacity %zu",
                        capacity());
        return true;
    }

    /** Consumer: true on success, false when empty. */
    bool
    tryPop(T &out) KMU_REQUIRES(consumerRole)
    {
        const std::size_t t = tail.load(std::memory_order_relaxed);
        KMU_INVARIANT(t < slots.size(),
                      "ring tail index %zu out of range", t);
        if (t == headCache) {
            // Empty by the cached view: refresh it (edge 1).
            headCache = head.load(std::memory_order_acquire);
            pushesCache = pushes.load(std::memory_order_relaxed);
            if (t == headCache)
                return false;
        }
        out = slots[t];
        bumpSingleWriter(pops);
        tail.store((t + 1) & mask, std::memory_order_release);
        KMU_MODEL_CHECK(pops.load(std::memory_order_relaxed) <=
                            pushesCache,
                        "ring popped more items than were pushed");
        return true;
    }

    /**
     * Consumer: pop up to @p max items into @p out (appended).
     * Models the device's burst descriptor read.
     * @return number of items popped.
     */
    std::size_t
    popBurst(std::vector<T> &out, std::size_t max) KMU_REQUIRES(consumerRole)
    {
        std::size_t n = 0;
        T item;
        while (n < max && tryPop(item)) {
            out.push_back(item);
            n++;
        }
        return n;
    }

    /** Consumer-side snapshot of queued item count (approximate
     *  under concurrency, exact single-threaded). */
    std::size_t
    size() const
    {
        const std::size_t h = head.load(std::memory_order_acquire);
        const std::size_t t = tail.load(std::memory_order_acquire);
        return (h - t) & mask;
    }

    bool empty() const { return size() == 0; }

    /** @{ Cumulative (never-wrapping) accounting, for invariants and
     *  tests: pops <= pushes and pushes - pops <= capacity always. */
    std::uint64_t
    totalPushes() const
    {
        return pushes.load(std::memory_order_relaxed);
    }
    std::uint64_t
    totalPops() const
    {
        return pops.load(std::memory_order_relaxed);
    }
    /** Full-ring push rejections (producer-side backpressure). With
     *  totalPushes this conserves attempts: every tryPush either
     *  pushed or rejected. */
    std::uint64_t
    totalRejects() const
    {
        return rejects.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    std::vector<T> slots;
    std::size_t mask;

    // Producer line. The cumulative counters mirror the indices
    // without the wrap, making conservation (pops <= pushes <= pops +
    // capacity) checkable. rejects is a statistic: observers read it
    // only at quiesce or as a monotonic count.
    alignas(64) std::atomic<std::size_t> head
        KMU_ATOMIC_ROLE(producer_writes, both_read){0};
    std::atomic<std::uint64_t> pushes
        KMU_ATOMIC_ROLE(producer_writes, both_read){0};
    std::atomic<std::uint64_t> rejects
        KMU_ATOMIC_ROLE(producer_writes, observers_read){0};
    std::size_t tailCache KMU_GUARDED_BY(producerRole) = 0;
    std::uint64_t popsCache KMU_GUARDED_BY(producerRole) = 0;

    // Consumer line.
    alignas(64) std::atomic<std::size_t> tail
        KMU_ATOMIC_ROLE(consumer_writes, both_read){0};
    std::atomic<std::uint64_t> pops
        KMU_ATOMIC_ROLE(consumer_writes, both_read){0};
    std::size_t headCache KMU_GUARDED_BY(consumerRole) = 0;
    std::uint64_t pushesCache KMU_GUARDED_BY(consumerRole) = 0;
};

} // namespace kmu

#endif // KMU_QUEUE_SPSC_RING_HH
