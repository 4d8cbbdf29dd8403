/**
 * @file
 * Common base of the per-mechanism core timing models.
 *
 * A core model is a state machine over the event queue: it "executes"
 * by charging time for each software action (work block, context
 * switch, queue management) and interacting with the memory system
 * through the issue hook the SimSystem wires up. One core model
 * instance represents one physical core running the microbenchmark
 * loop with the configured mechanism.
 */

#ifndef KMU_CORE_CORE_BASE_HH
#define KMU_CORE_CORE_BASE_HH

#include <functional>

#include "common/random.hh"
#include "core/system_config.hh"
#include "mem/cache.hh"
#include "mem/lfb.hh"
#include "sim/sim_object.hh"

namespace kmu
{

class CoreBase : public SimObject
{
  public:
    /**
     * Issue one cache-line read beyond the LFB (chip queue, link,
     * device or DRAM); the path calls lineArrived(line) when the
     * line is on-chip.
     */
    using IssueLine = std::function<void(Addr)>;

    /** Emit one posted line write toward the backing store. */
    using PostWrite = std::function<void(Addr)>;

    CoreBase(std::string name, EventQueue &queue, CoreId id,
             const SystemConfig &cfg, IssueLine issue,
             StatGroup *stat_parent);

    /** Kick off execution at the current tick. */
    virtual void start() = 0;

    /** Install the posted-write path (default: absorbed silently). */
    void setWriteHook(PostWrite hook) { postWrite = std::move(hook); }

    /** Install the read-latency sampler (ns per completed read). */
    void
    setLatencySampler(std::function<void(double)> sampler)
    {
        sampleLatency = std::move(sampler);
    }

    CoreId id() const { return coreId; }

    /** Completed microbenchmark iterations. */
    std::uint64_t iterations() const { return iterationsDone; }

    /** Work instructions retired (workCount per access). */
    std::uint64_t workInstrs() const { return workRetired; }

    /** Device/DRAM accesses completed (reads and writes). */
    std::uint64_t accessesDone() const { return accessesCompleted; }

    /** Posted line writes emitted. */
    std::uint64_t writesDone() const { return writesPosted; }

    /** This core's line fill buffers. */
    Lfb &lfb() { return lineFillBuffers; }

    /** This core's L1 tag model (consulted when cfg.l1Enabled). */
    L1Cache &l1() { return l1Cache; }

    /**
     * A line issued through IssueLine is on-chip: install it in the
     * L1 (when modelled) and fill its LFB entry, which wakes the
     * entry's waiters. The only fill action either core registers.
     */
    void
    lineArrived(Addr line)
    {
        l1Install(line);
        lineFillBuffers.fill(line);
    }

  protected:
    /** Model the core being busy for @p delay, then continue. The
     *  continuation goes straight into the queue's lambda arena —
     *  templated so no std::function materialises on this hot path. */
    template <typename F>
    void
    chargeAndThen(Tick delay, F &&cont)
    {
        eventQueue().scheduleLambda(curTick() + delay,
                                    std::forward<F>(cont),
                                    EventPriority::CpuTick, stepName);
    }

    /** Line address for (thread, iteration, slot): by default every
     *  access touches a fresh line, as in the paper's benchmark; an
     *  addressPlan substitutes real (locality-bearing) streams. */
    Addr
    addrFor(ThreadId thread, std::uint64_t iter,
            std::uint32_t slot) const
    {
        if (cfg.addressPlan) {
            return lineAlign(
                cfg.addressPlan(coreId, thread, iter, slot));
        }
        const std::uint64_t line =
            ((std::uint64_t(coreId) * 4096 + thread) << 34) +
            iter * AccessEngine::maxBatch + slot;
        return line * cacheLineSize;
    }

    /** L1 lookup (false when the cache model is disabled). */
    bool
    l1Hit(Addr line)
    {
        return cfg.l1Enabled && l1Cache.lookup(line);
    }

    /** Install a filled line when the cache model is enabled. */
    void
    l1Install(Addr line)
    {
        if (cfg.l1Enabled)
            l1Cache.install(line);
    }

    /** Book one finished iteration (work block retired). */
    void
    retireIteration(const IterationPlan &plan)
    {
        iterationsDone++;
        workRetired += std::uint64_t(plan.work) * plan.batch;
    }

    /**
     * Deterministically decide whether (thread, iter, slot) is a
     * write access under cfg.writeFraction (hash-based so both the
     * device run and its DRAM baseline pick identical slots).
     */
    bool
    isWriteSlot(ThreadId thread, std::uint64_t iter,
                std::uint32_t slot) const
    {
        if (cfg.writeFraction <= 0.0)
            return false;
        const std::uint64_t h =
            mix64(addrFor(thread, iter, slot) ^ 0x57a7e5eedull);
        return double(h >> 11) * 0x1.0p-53 < cfg.writeFraction;
    }

    /** Emit one posted write and account for it. */
    void
    emitWrite(ThreadId thread, std::uint64_t iter, std::uint32_t slot)
    {
        writesPosted++;
        accessesCompleted++;
        const Addr line = lineAlign(addrFor(thread, iter, slot));
        // Write-through, no-allocate: drop any cached copy.
        if (cfg.l1Enabled)
            l1Cache.invalidate(line);
        if (postWrite)
            postWrite(line);
    }

    const SystemConfig &cfg;
    /** Cached "<name>.step" — scheduling must not rebuild it. */
    const std::string stepName;
    IssueLine issueLine;
    PostWrite postWrite;
    std::function<void(double)> sampleLatency;
    Lfb lineFillBuffers;
    L1Cache l1Cache;

    std::uint64_t iterationsDone = 0;
    std::uint64_t workRetired = 0;
    std::uint64_t accessesCompleted = 0;
    std::uint64_t writesPosted = 0;

  private:
    CoreId coreId;
};

} // namespace kmu

#endif // KMU_CORE_CORE_BASE_HH
