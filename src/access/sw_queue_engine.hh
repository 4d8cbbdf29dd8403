/**
 * @file
 * Application-managed software-queue access engine.
 *
 * Reads are posted as 16-byte descriptors into the in-memory request
 * queue; the calling fiber blocks, the scheduler keeps running other
 * fibers, and — only once no fiber is ready — its idle handler polls
 * the completion queue and wakes the requesters (the paper's
 * Section IV-B design: FIFO thread management, poll-on-idle,
 * doorbell-request flag, device-side burst fetch).
 *
 * Each fiber owns a registered set of 64-byte response buffers; the
 * device writes response data there before posting the completion.
 */

#ifndef KMU_ACCESS_SW_QUEUE_ENGINE_HH
#define KMU_ACCESS_SW_QUEUE_ENGINE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "access/access_engine.hh"
#include "device/emulated_device.hh"
#include "fault/recovery.hh"
#include "health/health.hh"
#include "topo/topology.hh"
#include "ult/scheduler.hh"

namespace kmu
{

class SwQueueEngine : public AccessEngine
{
  public:
    /**
     * One queue pair per device shard, with line addresses routed by
     * @p interleave (topo::shardOf). Every descriptor carries its
     * shard id in hostAddr bits 56..61, so completions demux
     * shard-safely. A one-element @p pairs list is a single device.
     *
     * @param scheduler fiber scheduler (idle handler is installed).
     * @param device    running (or about-to-run) emulated device.
     * @param pairs     device queue-pair index of each shard.
     * @param gov       shared degradation governor (optional): fed
     *                  one sample per completed logical access so
     *                  queue-path retry pressure shows in the EWMA.
     * @param policy    watchdog timeout / bounded-retry parameters.
     * @param ctrl      optional health controller (src/health):
     *                  routes new and re-issued requests away from
     *                  quarantined shards, fails requests stuck past
     *                  their deadline, and is fed per-shard signals
     *                  every epochPolls poll ticks. nullptr keeps
     *                  every code path byte-identical to a
     *                  controller-free build.
     */
    SwQueueEngine(Scheduler &scheduler, EmulatedDevice &device,
                  std::vector<std::size_t> pairs,
                  topo::Interleave interleave,
                  fault::DegradationGovernor *gov = nullptr,
                  fault::RetryPolicy policy = {},
                  health::RecoveryController *ctrl = nullptr);

    std::uint64_t read64(Addr addr) override;
    AccessStatus tryRead64(Addr addr, std::uint64_t &out) override;
    void readBatch(const Addr *addrs, std::size_t n,
                   std::uint64_t *out) override;
    void readLines(const Addr *addrs, std::size_t n, void *out) override;
    AccessStatus tryReadLines(const Addr *addrs, std::size_t n,
                              void *out) override;

    /**
     * Posted line write: copies @p line into a staging buffer,
     * submits a write descriptor, and returns without blocking the
     * fiber. The staging buffer recycles when the device posts the
     * write's completion. A later read through this engine observes
     * the write (FIFO service order per queue pair).
     */
    void writeLine(Addr addr, const void *line) override;

    /** Read-modify-write of one word (the full-line protocol has no
     *  byte enables — the coherence cost of Section V-C). */
    void write64(Addr addr, std::uint64_t value) override;

    Mechanism mechanism() const override { return Mechanism::SwQueue; }

    /** @{ Protocol statistics. */
    std::uint64_t doorbellsRung() const { return doorbells; }
    std::uint64_t completionsReaped() const { return reaped; }
    std::uint64_t pollCalls() const { return polls; }
    std::uint64_t writeStalls() const { return stagingStalls; }
    /** @} */

    /** Watchdog clock: poll passes since construction (with a
     *  threaded device, only passes during which the device thread
     *  also ran). In manual-pump (deterministic-device) mode this is
     *  a logical clock, so deltas of it are a bit-reproducible
     *  latency unit for benches. */
    std::uint64_t pollTicks() const { return pollTick; }

  private:
    /**
     * Per-fiber response buffers and outstanding-request count, plus
     * per-slot watchdog state: a read slot is `pending` from submit
     * until a completion with the matching generation tag (and a
     * valid payload CRC) arrives; the watchdog re-issues slots whose
     * poll-tick deadline has passed with a bumped generation, so a
     * late twin of the original request is recognizably stale.
     */
    struct FiberIo
    {
        /**
         * Response buffer of each slot, leased from the engine's
         * pool. Indirection matters for failure handling: when a
         * slot abandons an attempt whose twin may still be queued
         * on a hung ring (deadline fail, cross-ring re-issue), the
         * lease is swapped for a fresh buffer and the old one is
         * tombstoned until the twin's DMA and completion drain —
         * otherwise that late DMA would land in a buffer the slot
         * has already reused for different data.
         */
        std::uint8_t *buffers[maxBatch] = {};
        std::uint32_t outstanding = 0;
        Fiber *fiber = nullptr;

        bool pending[maxBatch] = {};
        std::uint8_t gen[maxBatch] = {};
        Addr line[maxBatch] = {}; //!< device line, for re-issue
        std::uint64_t deadlineAt[maxBatch] = {}; //!< pollTick deadline
        std::uint32_t attempts[maxBatch] = {};
        /** Shard the slot's live request is currently routed to
         *  (differs from the interleave-natural owner after a
         *  failover re-issue). */
        std::uint32_t shard[maxBatch] = {};
        /** pollTick of first submit: the per-request deadline is
         *  measured from here, across re-issues. */
        std::uint64_t issuedAt[maxBatch] = {};
        /** How the slot's read ended this batch: Ok unless it was
         *  failed back. */
        AccessStatus status[maxBatch] = {};
    };

    /** Get (or lazily create and register) the caller's IO state. */
    FiberIo &ioState();

    /** Submit @p n line reads and block until they all complete. */
    FiberIo &submitAndWait(const Addr *addrs, std::size_t n);

    /** Scheduler idle handler: reap completions, wake fibers. */
    bool pollCompletions();

    /** Reap every available completion on every pair; @return how
     *  many. */
    std::size_t drainCompletions();

    /** Reap every available completion of shard @p s's pair. */
    std::size_t drainPair(std::uint32_t s);

    /** Ring each shard's doorbell if its device requested one. */
    void doorbellIfRequested();

    /** Shard owning device line @p line under this topology. */
    std::uint32_t shardFor(Addr line) const
    {
        return topo::shardOf(line, topoCfg);
    }

    /**
     * Routed destination of a request for @p line: the natural owner
     * unless the health controller quarantined it, in which case the
     * controller picks probe-or-failover. Counts failovers.
     */
    std::uint32_t routeFor(Addr line);

    /**
     * Routed destination for a new request on @p line, preserving
     * read-your-writes across failovers: if a posted write for the
     * same line is still in flight, follow the *latest* such write's
     * currently-routed shard so per-ring FIFO order keeps the new
     * request behind it. Without this, a hedged read re-routed to a
     * healthy sibling can pass a write still queued on the sick
     * shard and observe stale data. @p excludeSlot lets a write
     * re-issue skip its own staging slot.
     */
    std::uint32_t routeForOrdered(Addr line,
                                  std::size_t excludeSlot = stagingSlots);

    /** True when stuck requests must be deadline-failed instead of
     *  retried forever (Full health mode). */
    bool
    deadlineMode() const
    {
        return controller != nullptr &&
               controller->config().mode == health::Mode::Full;
    }

    /** Fail one read slot back with @p status. */
    void failRead(FiberIo &io, std::size_t slot, AccessStatus status);

    /** A slot of @p io finished: wake its fiber if that was the last
     *  one and the fiber has blocked. A slot can fail, or its
     *  re-issue complete, while the fiber is still in
     *  submitAndWait's ring-full wait; it then skips blocking. */
    void slotDone(FiberIo &io);

    /** Close the signal epoch and feed the controller, when due. */
    void healthEpochMaybe();

    /** Wait-loop backoff: pump a manual-mode device, else yield the
     *  OS thread so the device service thread can run. */
    void deviceBackoff();

    /** One pass of a fiber-side wait loop (ring full / staging dry):
     *  drain, back off, and keep the watchdog clock moving so lost
     *  completions cannot stall the loop forever. */
    void stalledWait();

    /**
     * Advance the watchdog clock by one poll tick. With a threaded
     * device the tick only counts if the service thread ran a pass
     * since the last one: a host spinning while the OS keeps the
     * device thread descheduled has no evidence that a request was
     * lost, and re-issuing there only duplicates work and, past the
     * retry budget, panics. Manual mode ticks on every poll.
     */
    void tickWatchdog();

    /** Re-issue one read slot with a fresh generation tag. */
    void reissueRead(FiberIo &io, std::size_t slot);

    /** Re-issue one pending posted write from its staging slot. */
    void reissueWrite(std::size_t slot);

    /** Watchdog: re-issue every pending op past its deadline. */
    void watchdogScan();

    /** Recovery doorbell on @p shard: ring even without a device
     *  request (the original doorbell may itself have been lost). */
    void forceDoorbell(std::uint32_t shard);

    /** Staging buffers backing posted writes. */
    static constexpr std::size_t stagingSlots = 32;

    struct StagingBuffer
    {
        alignas(cacheLineSize) std::uint8_t line[cacheLineSize];
    };

    /** Watchdog state of one posted write (per staging slot). */
    struct WriteState
    {
        bool pending = false;
        std::uint8_t gen = 0;
        /** Generation of this write's first attempt: a completion
         *  tagged outside [firstGen, gen] is a late twin of the
         *  slot's previous write. */
        std::uint8_t firstGen = 0;
        Addr line = 0; //!< device line address, for re-issue
        std::uint64_t deadlineAt = 0; //!< pollTick re-issue deadline
        std::uint32_t attempts = 0;
        std::uint32_t shard = 0;      //!< current routed shard
        std::uint64_t issuedAt = 0;   //!< pollTick of first submit
        /** Attempts submitted but not yet answered (stale twins
         *  included). */
        std::uint32_t outstanding = 0;
        /**
         * A failover re-issue left attempts on another ring. Each
         * ring is serviced in FIFO order, so once the live attempt
         * completes every earlier attempt on its ring has read the
         * staging buffer, and the slot recycles at once. A twin
         * parked on another (possibly hung) ring reads the buffer
         * whenever that ring drains, so such a slot is `held` until
         * `outstanding` reaches zero: handing the buffer to a new
         * write before then would graft the new payload onto the
         * old write's line address.
         */
        bool leftRing = false;
        bool held = false; //!< acknowledged, waiting on those twins
        /** Program-order stamp: routeForOrdered follows the newest
         *  pending write of a line, and poll ticks alone cannot
         *  order two writes submitted in the same tick. */
        std::uint64_t seq = 0;
    };

    Scheduler &sched;
    EmulatedDevice &dev;
    /** One device queue-pair index + pair per shard; element s is
     *  shard s. Single-device engines hold one element. */
    std::vector<std::size_t> pairIndices;
    std::vector<SwQueuePair *> pairs;
    topo::TopologyConfig topoCfg;
    fault::DegradationGovernor *governor;
    fault::RetryBackoff backoff;
    health::RecoveryController *controller;

    /** Per-shard health signals (cumulative; the epoch driver takes
     *  deltas against epochBase). Empty when no controller. */
    struct ShardSignalCounters
    {
        std::uint64_t completions = 0;
        std::uint64_t retries = 0;
        std::uint64_t rejects = 0;
    };
    std::vector<ShardSignalCounters> shardSignals;
    std::vector<ShardSignalCounters> epochBase;
    /** Live in-flight ops per routed shard (reads + writes). */
    std::vector<std::uint64_t> shardLive;
    /** Scratch for the epoch driver's oldest-age scan. */
    std::vector<std::uint64_t> oldestScratch;
    std::uint64_t nextEpochAt = 0;

    std::unordered_map<Fiber *, std::unique_ptr<FiberIo>> ioStates;
    /** Creation-ordered view of ioStates: the watchdog iterates this
     *  so its scan order (and RNG consumption) is deterministic. */
    std::vector<FiberIo *> ioList;

    /** One pooled response buffer (stable address for its lifetime). */
    struct LineBuffer
    {
        alignas(cacheLineSize) std::uint8_t line[cacheLineSize];
    };

    /**
     * Who a response buffer currently serves. `io == nullptr` marks
     * a tombstone: the buffer's slot moved on, but attempts naming
     * it are still unanswered — it returns to the free pool once
     * `outstanding` drains to zero.
     */
    struct BufState
    {
        FiberIo *io = nullptr;
        std::size_t slot = 0;
        std::uint32_t outstanding = 0; //!< submitted, not yet answered
    };

    /** Lease a buffer for @p io's @p slot (reuses the free pool,
     *  grows it when dry). */
    std::uint8_t *leaseBuffer(FiberIo &io, std::size_t slot);

    /**
     * Called before a slot abandons its current attempt for a path
     * outside its ring's FIFO order (deadline fail, or re-issue to
     * a different shard). If attempts on the current buffer are
     * still unanswered, tombstone it and lease a replacement;
     * otherwise the buffer is provably idle and stays.
     */
    void quarantineBufferIfLive(FiberIo &io, std::size_t slot);

    std::vector<std::unique_ptr<LineBuffer>> bufferPool;
    std::vector<std::uint8_t *> freeBuffers;
    std::unordered_map<Addr, BufState> bufStates;

    std::vector<std::unique_ptr<StagingBuffer>> staging;
    std::vector<std::size_t> freeStaging;
    std::unordered_map<Addr, std::size_t> stagingIndex;
    WriteState writeState[stagingSlots];

    std::uint64_t writeSeq = 0; //!< program-order write stamp source
    std::uint64_t inFlight = 0; //!< issued ops awaiting completion
    std::uint64_t pollTick = 0; //!< watchdog clock: poll passes
    std::uint64_t devicePassesSeen = 0; //!< servicePasses() at last tick
    std::uint64_t doorbells = 0;
    std::uint64_t reaped = 0;
    std::uint64_t polls = 0;
    std::uint64_t stagingStalls = 0;
};

} // namespace kmu

#endif // KMU_ACCESS_SW_QUEUE_ENGINE_HH
