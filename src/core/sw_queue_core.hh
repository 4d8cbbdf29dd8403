/**
 * @file
 * Application-managed software-queue core model (Section V-C).
 *
 * T user-level threads submit 16-byte descriptors into the in-memory
 * request queue and block; the user-level scheduler runs other
 * threads, and polls the completion queue only when no thread is
 * ready (FIFO thread management, as the paper's support software).
 * The doorbell-request flag protocol decides when the (costly) MMIO
 * doorbell must be rung.
 *
 * No hardware queue limits apply — that is the mechanism's strength
 * (Fig. 7/8) — but every access pays software costs: descriptor
 * enqueue, completion reaping, and the first touch of the DMA-written
 * response buffer. These costs bound peak performance near 50 % of
 * the DRAM baseline (Fig. 7) and fall further with MLP (Fig. 9).
 */

#ifndef KMU_CORE_SW_QUEUE_CORE_HH
#define KMU_CORE_SW_QUEUE_CORE_HH

#include <deque>
#include <vector>

#include "core/core_base.hh"
#include "queue/sw_queue_pair.hh"
#include "topo/topology.hh"

namespace kmu
{

class SwQueueCore : public CoreBase
{
  public:
    /** Ring one shard's per-core doorbell register on its device. */
    using RingDoorbell = std::function<void()>;

    /**
     * @p queue_pairs / @p rings hold one queue pair and one doorbell
     * closure per device shard (a single element in the paper's
     * single-device topology). Descriptors route to the shard owning
     * their line address (topo::shardOf), and every shard's
     * completion queue is swept in each poll pass.
     */
    SwQueueCore(std::string name, EventQueue &queue, CoreId id,
                const SystemConfig &cfg,
                std::vector<SwQueuePair *> queue_pairs,
                std::vector<RingDoorbell> rings,
                StatGroup *stat_parent);

    void start() override;

    /**
     * Hook for the device side: a completion record became visible
     * in the completion queue (call at CQ-write TLP arrival).
     */
    void onCompletionPosted();

    /** Encode a descriptor tag for (thread, slot). */
    static Addr
    encodeTag(ThreadId thread, std::uint32_t slot)
    {
        return (Addr(thread) * 64 + slot) * cacheLineSize;
    }

    /** Decode the thread id from a completion tag (the tag may carry
     *  a shard id in bits 56..61; strip it first). */
    static ThreadId
    decodeThread(Addr tag)
    {
        return ThreadId((topo::stripShard(tag) & ~Addr(1)) /
                        cacheLineSize / 64);
    }

    /** Decode the batch slot from a completion tag. */
    static std::uint32_t
    decodeSlot(Addr tag)
    {
        return std::uint32_t((topo::stripShard(tag) & ~Addr(1)) /
                             cacheLineSize % 64);
    }

    /** Write completions carry bit 0 (posted-write recycle only). */
    static bool
    isWriteTag(Addr tag)
    {
        return (tag & 1) != 0;
    }

    /** @{ Mechanism statistics. */
    Counter submits;
    Counter doorbellsRung;
    Counter pollPasses;
    Counter completionsHandled;
    Counter idleWaits;
    /** @} */

  private:
    /** Cached wakeup event names (scheduled per poll/serve). */
    const std::string serveWakeName = name() + ".serve_wake";
    const std::string wakeName = name() + ".wake";

    struct UThread
    {
        bool started = false;
        bool parkedAtSubmit = false; //!< serving: no request yet
        std::uint64_t iter = 0;
        IterationPlan plan{1, 0}; //!< plan of iteration `iter`
        std::uint32_t reads = 0;  //!< read slots of iteration `iter`
        std::uint32_t pendingFills = 0;
    };

    /** Scheduler: run the next ready thread or poll. */
    void coreLoop();

    /** One visit of thread @p tid (consume results, work, resubmit). */
    void visitThread(ThreadId tid);

    /** Enqueue the next iteration's descriptors for @p tid. */
    void submitPhase(ThreadId tid);

    /** Poll pass over the completion queue. */
    void pollLoop();

    /** Serving mode: a request arrived for parked thread @p tid. */
    void onRequestReady(ThreadId tid);

    std::vector<SwQueuePair *> queues;    //!< one per device shard
    std::vector<RingDoorbell> doorbells;  //!< one per device shard
    /** Submit tick of each outstanding read, indexed by
     *  thread * maxBatch + slot (noSubmit when none). */
    std::vector<Tick> submitTicks;
    static constexpr Tick noSubmit = maxTick;
    std::vector<UThread> threads;
    std::deque<ThreadId> readyQueue;
    bool idleWaiting = false;
};

} // namespace kmu

#endif // KMU_CORE_SW_QUEUE_CORE_HH
