/**
 * @file
 * Prefetch + user-level-yield access engine (the paper's Listing 1).
 *
 * Every read issues a non-binding prefetcht0 for the target line,
 * yields the calling fiber (round robin), and performs the demand
 * load on resumption — by which time the line should be in the L1.
 * Batched reads issue all prefetches before the single yield, which
 * is exactly how the paper builds its MLP variants ("a single
 * context switch after issuing multiple prefetches").
 */

#ifndef KMU_ACCESS_PREFETCH_ENGINE_HH
#define KMU_ACCESS_PREFETCH_ENGINE_HH

#include "access/access_engine.hh"
#include "fault/recovery.hh"
#include "ult/scheduler.hh"

namespace kmu
{

class PrefetchEngine : public AccessEngine
{
  public:
    /**
     * @param base      start of the mapped (cacheable) device region.
     * @param bytes     size of the region.
     * @param scheduler fiber scheduler to yield into.
     * @param gov       shared degradation governor (optional). While
     *                  it reports Degraded, reads skip the
     *                  prefetch+yield pair and run on-demand — under
     *                  sustained fault pressure the prefetched line
     *                  rarely survives to the demand load, so the
     *                  yield is pure overhead.
     * @param policy    bounded-retry parameters for detected read
     *                  errors (fault::FaultSite::MappedReadError).
     */
    PrefetchEngine(std::uint8_t *base, std::size_t bytes,
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

    Mechanism mechanism() const override { return Mechanism::Prefetch; }

    /** Yields performed (== dev_access calls + batch calls). */
    std::uint64_t yields() const { return yieldCount; }

  private:
    /** Issue the non-binding prefetch for one address. */
    void prefetch(Addr addr) const;

    /** True while the governor has the engine in on-demand mode. */
    bool degradedNow() const;

    /**
     * Bounded retry of a faulted mapped read. @return false when the
     * read failed once more after maxRetries re-issues, which panics
     * unless @p mayFail (a try* call that reports the failure).
     */
    bool surviveMappedRead(Addr addr, bool degraded, bool mayFail);

    /** readLines(); false when a line's read failed (that line's
     *  output is left alone). */
    bool readLineBatch(const Addr *addrs, std::size_t n, void *out,
                       bool mayFail);

    std::uint8_t *base;
    std::size_t bytes;
    Scheduler &sched;
    fault::DegradationGovernor *governor;
    fault::RetryPolicy retryPolicy;
    std::uint64_t yieldCount = 0;
};

} // namespace kmu

#endif // KMU_ACCESS_PREFETCH_ENGINE_HH
