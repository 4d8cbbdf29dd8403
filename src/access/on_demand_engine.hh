/**
 * @file
 * On-demand access engine: the unmodified-software baseline.
 *
 * Reads are plain loads against the mapped device region. Latency
 * hiding is left entirely to the core's out-of-order machinery —
 * which, per the paper's Fig. 2, is hopeless for microsecond
 * devices. On a real host the mapped region is DRAM, so this engine
 * doubles as the paper's "DRAM baseline".
 */

#ifndef KMU_ACCESS_ON_DEMAND_ENGINE_HH
#define KMU_ACCESS_ON_DEMAND_ENGINE_HH

#include "access/access_engine.hh"
#include "fault/recovery.hh"

namespace kmu
{

class OnDemandEngine : public AccessEngine
{
  public:
    /**
     * @param base   start of the mapped device region.
     * @param bytes  size of the region (bounds-checked accesses).
     * @param gov    shared degradation governor (optional; on-demand
     *               has no cheaper mode to fall back to, but its
     *               retry pressure still feeds the shared EWMA).
     * @param policy bounded-retry parameters for detected read
     *               errors (fault::FaultSite::MappedReadError).
     */
    OnDemandEngine(std::uint8_t *base, std::size_t bytes,
                   fault::DegradationGovernor *gov = nullptr,
                   fault::RetryPolicy policy = {});

    std::uint64_t read64(Addr addr) override;
    AccessStatus tryRead64(Addr addr, std::uint64_t &out) override;
    void readBatch(const Addr *addrs, std::size_t n,
                   std::uint64_t *out) override;
    void readLines(const Addr *addrs, std::size_t n, void *out) override;
    AccessStatus tryReadLines(const Addr *addrs, std::size_t n,
                              void *out) override;
    void writeLine(Addr addr, const void *line) override;
    void write64(Addr addr, std::uint64_t value) override;

    Mechanism mechanism() const override { return Mechanism::OnDemand; }

  private:
    /**
     * One bounded-retry mapped access. @return false when the read
     * failed once more after maxRetries re-issues, which panics
     * unless @p mayFail (a try* call that reports the failure).
     */
    bool surviveMappedRead(bool mayFail);

    /** readLines(); false when a line's read failed (that line's
     *  output is left alone). */
    bool readLineBatch(const Addr *addrs, std::size_t n, void *out,
                       bool mayFail);

    std::uint8_t *base;
    std::size_t bytes;
    fault::DegradationGovernor *governor;
    fault::RetryPolicy retryPolicy;
};

} // namespace kmu

#endif // KMU_ACCESS_ON_DEMAND_ENGINE_HH
