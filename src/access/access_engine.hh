/**
 * @file
 * Unified device-access interface for the host runtime.
 *
 * An AccessEngine hides one of the paper's three access mechanisms
 * behind a synchronous, fiber-friendly read API: the calling fiber
 * observes a blocking read, while the engine overlaps the latency
 * with other fibers' work (prefetch + yield, or software queues) or
 * not at all (on-demand baseline). Applications written against this
 * interface switch mechanisms by construction flag only — the
 * "minimal source changes" property the paper's library targets.
 */

#ifndef KMU_ACCESS_ACCESS_ENGINE_HH
#define KMU_ACCESS_ACCESS_ENGINE_HH

#include <cstdint>

#include "common/types.hh"

namespace kmu
{

/** The device-access mechanisms studied in the paper. */
enum class Mechanism
{
    OnDemand, //!< plain loads; hardware queues only (Section V-A)
    Prefetch, //!< prefetch + user-level yield + load (Section V-B)
    SwQueue   //!< application-managed software queues (Section V-C)
};

/** Human-readable mechanism name (for tables and logs). */
const char *mechanismName(Mechanism mech);

/**
 * Outcome of a bounded access (the try* calls). Only the
 * software-queue engine under a Full health controller ever reports
 * DeadlineExceeded: a request stuck on a quarantined shard past its
 * per-request deadline, or out of retries, is failed back to the
 * workload instead of hanging it (the error is the bound). Any other
 * engine reports RetriesExhausted for a read that failed again after
 * every re-issue its RetryPolicy allows (a bad mapped read, or a
 * lost or corrupted software-queue completion), and the access fails
 * instead of aborting the process.
 */
enum class AccessStatus
{
    Ok,
    DeadlineExceeded,
    RetriesExhausted
};

class AccessEngine
{
  public:
    virtual ~AccessEngine() = default;

    /** Largest batch readBatch()/readLines() accepts. */
    static constexpr std::size_t maxBatch = 16;

    /**
     * Read the 64-bit word at device address @p addr (must be
     * 8-byte aligned). Synchronous to the calling fiber.
     */
    virtual std::uint64_t read64(Addr addr) = 0;

    /**
     * Bounded variant of read64(): an access that fails returns its
     * AccessStatus (with @p out unspecified) instead of blocking
     * forever or aborting — a stuck request under a Full health
     * controller, or a read out of retries. Without either
     * failure path the result is always Ok, so workloads can use
     * this unconditionally.
     */
    virtual AccessStatus
    tryRead64(Addr addr, std::uint64_t &out)
    {
        out = read64(addr);
        return AccessStatus::Ok;
    }

    /**
     * Read @p n independent 64-bit words in one batch (the paper's
     * MLP experiments): all requests are issued before the fiber
     * waits, so their latencies overlap each other.
     */
    virtual void readBatch(const Addr *addrs, std::size_t n,
                           std::uint64_t *out) = 0;

    /**
     * Read @p n full cache lines into @p out (64 bytes each,
     * concatenated). Line-aligned addresses required.
     */
    virtual void readLines(const Addr *addrs, std::size_t n,
                           void *out) = 0;

    /** Bounded variant of readLines(), with tryRead64()'s statuses;
     *  a failed batch leaves its failed lines unspecified. */
    virtual AccessStatus
    tryReadLines(const Addr *addrs, std::size_t n, void *out)
    {
        readLines(addrs, n, out);
        return AccessStatus::Ok;
    }

    /**
     * Write one full cache line (the paper's future-work write
     * path). Writes are *posted*: the call returns as soon as the
     * store is on its way, because — as the paper's conclusion
     * notes — writes have no return value and do not block the
     * reorder buffer. Ordering guarantee: a later read through the
     * same engine observes the write.
     */
    virtual void writeLine(Addr addr, const void *line) = 0;

    /**
     * Write one 64-bit word. On the memory-mapped mechanisms this
     * is a plain store; on the software-queue mechanism it must
     * read-modify-write the containing line (the programmability
     * cost of non-coherent queue interfaces that Section V-C of the
     * paper warns about).
     */
    virtual void write64(Addr addr, std::uint64_t value) = 0;

    /** Which mechanism this engine implements. */
    virtual Mechanism mechanism() const = 0;

    /** Total read requests issued through this engine. */
    std::uint64_t accesses() const { return accessCount; }

    /** Total line writes issued through this engine. */
    std::uint64_t writes() const { return writeCount; }

    /**
     * Fault-survival bookkeeping, uniform across mechanisms so
     * campaign drivers report all engines the same way. All zero
     * unless a fault plan is active and faults actually landed.
     */
    struct RecoveryCounters
    {
        std::uint64_t retries = 0;           //!< accesses re-issued
        std::uint64_t timeouts = 0;          //!< watchdog expirations
        std::uint64_t crcFailures = 0;       //!< payload CRC mismatches
        std::uint64_t staleCompletions = 0;  //!< filtered stale/dup
        std::uint64_t degradedAccesses = 0;  //!< served degraded
        std::uint64_t recoveryDoorbells = 0; //!< watchdog doorbells
        std::uint64_t deadlineErrors = 0;    //!< failed at deadline
        std::uint64_t failovers = 0;         //!< re-routed off-shard
    };

    const RecoveryCounters &recovery() const { return recoveryStats; }

  protected:
    std::uint64_t accessCount = 0;
    std::uint64_t writeCount = 0;
    RecoveryCounters recoveryStats;
};

} // namespace kmu

#endif // KMU_ACCESS_ACCESS_ENGINE_HH
