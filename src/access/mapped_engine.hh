/**
 * @file
 * Memory-mapped access engine: the paper's on-demand baseline and
 * its prefetch + user-level-yield mechanism (Listing 1), which
 * differ by one step before the load.
 *
 * Both read a cacheable mapping of the device region (on a real host
 * the region is DRAM, so on-demand doubles as the paper's "DRAM
 * baseline"). On-demand reads are plain loads: latency hiding is
 * left to the core's out-of-order machinery, which per the paper's
 * Fig. 2 is hopeless for microsecond devices. Prefetch reads issue a
 * non-binding prefetcht0 for every line of the call, yield the
 * calling fiber once (round robin), and load on resumption, by which
 * time the lines should be in the L1; a batch is "a single context
 * switch after issuing multiple prefetches", as in the paper's MLP
 * variants. While the degradation governor reports Degraded, a
 * prefetch engine reads on-demand: under sustained fault pressure
 * the prefetched line rarely survives to the demand load, so the
 * yield is pure overhead.
 */

#ifndef KMU_ACCESS_MAPPED_ENGINE_HH
#define KMU_ACCESS_MAPPED_ENGINE_HH

#include "access/access_engine.hh"
#include "fault/recovery.hh"
#include "ult/scheduler.hh"

namespace kmu
{

class MappedEngine : public AccessEngine
{
  public:
    /**
     * @param mech      Mechanism::OnDemand or Mechanism::Prefetch.
     * @param base      start of the mapped (cacheable) device region.
     * @param bytes     size of the region (bounds-checked accesses).
     * @param scheduler fiber scheduler prefetch reads yield into.
     * @param gov       shared degradation governor (optional): fed
     *                  one retry sample per read, and in Prefetch
     *                  mode consulted once per read call.
     * @param policy    bounded-retry parameters for detected read
     *                  errors (fault::FaultSite::MappedReadError).
     */
    MappedEngine(Mechanism mech, std::uint8_t *base, std::size_t bytes,
                 Scheduler &scheduler,
                 fault::DegradationGovernor *gov = nullptr,
                 fault::RetryPolicy policy = {});

    std::uint64_t read64(Addr addr) override;
    AccessStatus tryRead64(Addr addr, std::uint64_t &out) override;
    void readBatch(const Addr *addrs, std::size_t n,
                   std::uint64_t *out) override;
    void readLines(const Addr *addrs, std::size_t n, void *out) override;
    AccessStatus tryReadLines(const Addr *addrs, std::size_t n,
                              void *out) override;

    /** Plain stores: posted by the store buffer, so no yield is
     *  needed — exactly why the paper expects writes to hide. */
    void writeLine(Addr addr, const void *line) override;
    void write64(Addr addr, std::uint64_t value) override;

    Mechanism mechanism() const override { return mech; }

    /** Yields performed (one per prefetch read call, plus one per
     *  re-armed retry). */
    std::uint64_t yields() const { return yieldCount; }

  private:
    /**
     * The one read routine behind all five read calls: @p n items of
     * @p Width bytes (8 or a cache line) into @p out, as one
     * AccessRead span. @return false when an item's read failed once
     * more after maxRetries re-issues (that item's output is left
     * alone), which panics unless @p mayFail (a try* call).
     */
    template <std::size_t Width>
    bool read(const Addr *addrs, std::size_t n, void *out, bool mayFail);

    /** Issue the non-binding prefetch for one address. */
    void prefetch(Addr addr) const;

    Mechanism mech;
    std::uint8_t *base;
    std::size_t bytes;
    Scheduler &sched;
    fault::DegradationGovernor *governor;
    fault::RetryPolicy retryPolicy;
    std::uint64_t yieldCount = 0;
};

} // namespace kmu

#endif // KMU_ACCESS_MAPPED_ENGINE_HH
