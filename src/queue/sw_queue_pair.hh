/**
 * @file
 * Request/completion queue pair with the doorbell-request protocol.
 *
 * The paper's best software-managed interface pairs two in-memory
 * rings with two optimizations that it found strictly necessary:
 *
 *  1. a *doorbell-request flag*: the device keeps fetching requests
 *     on its own until a burst read returns nothing new; it then sets
 *     the flag and stops. The host only performs the (costly) MMIO
 *     doorbell when it observes the flag set, and clears it after.
 *  2. *burst reads*: descriptors are fetched eight at a time to
 *     amortize per-transaction costs.
 *
 * This class is the host-memory state shared by both sides; the
 * timing model and the real runtime layer their costs on top of it.
 */

#ifndef KMU_QUEUE_SW_QUEUE_PAIR_HH
#define KMU_QUEUE_SW_QUEUE_PAIR_HH

#include <atomic>
#include <cstdint>

#include "common/thread_annotations.hh"
#include "queue/descriptor.hh"
#include "queue/spsc_ring.hh"

namespace kmu
{

class SwQueuePair
{
  public:
    /** @param depth ring capacity (power of two). */
    explicit SwQueuePair(std::size_t depth = 256)
        : requests(depth), completions(depth)
    {
    }

    /** @{
     * Role capabilities: the queue pair is shared by exactly two
     * contexts — the host (request producer / completion consumer)
     * and the device (request consumer / completion producer). The
     * protocol functions below are gated on these roles; each maps
     * onto the proper ring-side role internally, so the SPSC
     * single-owner discipline is enforced end to end at compile time
     * on clang (-Wthread-safety).
     */
    ThreadRole hostRole;
    ThreadRole deviceRole;
    /** @} */

    /** Host side: enqueue one request descriptor.
     *  @return false when the request ring is full. */
    bool
    submit(const RequestDescriptor &desc) KMU_REQUIRES(hostRole)
    {
        RoleGuard producer(requests.producerRole);
        return requests.tryPush(desc);
    }

    /**
     * Host side: check-and-clear the doorbell-request flag. Call
     * after submit(); a true return means the host must ring the
     * MMIO doorbell to restart the fetcher.
     */
    bool
    consumeDoorbellRequest() KMU_REQUIRES(hostRole)
    {
        bool expected = true;
        return doorbellNeeded.compare_exchange_strong(
            expected, false, std::memory_order_acq_rel);
    }

    /** Host side: poll one completion. */
    bool
    reapCompletion(CompletionDescriptor &out) KMU_REQUIRES(hostRole)
    {
        RoleGuard consumer(completions.consumerRole);
        return completions.tryPop(out);
    }

    /** Device side: burst-fetch up to @p max requests (default: the
     *  paper's burst of eight). */
    std::size_t
    fetchBurst(std::vector<RequestDescriptor> &out,
               std::size_t max = descriptorBurst) KMU_REQUIRES(deviceRole)
    {
        RoleGuard consumer(requests.consumerRole);
        return requests.popBurst(out, max);
    }

    /** Device side: post a completion (after the data write). */
    bool
    postCompletion(const CompletionDescriptor &desc) KMU_REQUIRES(deviceRole)
    {
        RoleGuard producer(completions.producerRole);
        return completions.tryPush(desc);
    }

    /**
     * Device side, after an empty burst: park, publish the
     * doorbell-request flag, then re-fetch once into @p out. A
     * request submitted after the empty burst but before the flag
     * was visible has a submitter that skipped its doorbell, so it
     * un-parks the fetcher here instead of stranding. Parking before
     * the flag goes out means a doorbell rung on the flag lands after
     * the park, never under it.
     * @return descriptors fetched (0: parked).
     */
    std::size_t
    park(std::vector<RequestDescriptor> &out,
         std::size_t max = descriptorBurst) KMU_REQUIRES(deviceRole)
    {
        parked.store(true, std::memory_order_release);
        doorbellNeeded.store(true, std::memory_order_release);
        const std::size_t n = fetchBurst(out, max);
        if (n != 0)
            parked.store(false, std::memory_order_release);
        return n;
    }

    /** Device side: park without the flag (the host rings on every
     *  submission; DeviceParams::doorbellFlag = false). */
    void
    parkWithoutFlag() KMU_REQUIRES(deviceRole)
    {
        parked.store(true, std::memory_order_release);
    }

    /** A doorbell reached the device: the fetcher runs again. */
    void
    doorbellArrived()
    {
        parked.store(false, std::memory_order_release);
    }

    /** True while the fetcher is parked waiting for a doorbell. */
    bool
    fetcherParked() const
    {
        return parked.load(std::memory_order_acquire);
    }

    /** True while the doorbell-request flag is published. */
    bool
    doorbellRequested() const
    {
        return doorbellNeeded.load(std::memory_order_acquire);
    }

    std::size_t pendingRequests() const { return requests.size(); }
    std::size_t pendingCompletions() const { return completions.size(); }

    /** @{ Ring access for invariant sweeps and tests. */
    const SpscRing<RequestDescriptor> &
    requestRing() const
    {
        return requests;
    }
    const SpscRing<CompletionDescriptor> &
    completionRing() const
    {
        return completions;
    }
    /** @} */

  private:
    SpscRing<RequestDescriptor> requests;
    SpscRing<CompletionDescriptor> completions;
    std::atomic<bool> doorbellNeeded //!< starts parked
        KMU_ATOMIC_ROLE(device_sets, host_clears, both_read){true};
    /** Written by every doorbell, so on a line of its own: the
     *  host's stores do not evict the device's ring state. */
    alignas(64) std::atomic<bool> parked
        KMU_ATOMIC_ROLE(host_clears, device_writes, device_reads){true};
};

} // namespace kmu

#endif // KMU_QUEUE_SW_QUEUE_PAIR_HH
