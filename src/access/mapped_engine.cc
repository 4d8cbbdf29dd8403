#include "access/mapped_engine.hh"

#include <cstring>

#include "access/access_trace.hh"
#include "common/logging.hh"
#include "fault/fault_plan.hh"

namespace kmu
{

MappedEngine::MappedEngine(Mechanism mechanism, std::uint8_t *region_base,
                           std::size_t region_bytes, Scheduler &scheduler,
                           fault::DegradationGovernor *gov,
                           fault::RetryPolicy policy)
    : mech(mechanism), base(region_base), bytes(region_bytes),
      sched(scheduler), governor(gov), retryPolicy(policy)
{
    kmuAssert(mech != Mechanism::SwQueue,
              "the mapped engine reads on-demand or by prefetch");
    kmuAssert(base != nullptr && bytes >= cacheLineSize,
              "mapped engine needs a region of at least one line");
}

void
MappedEngine::prefetch(Addr addr) const
{
    const std::uint8_t *p = base + addr;
#if defined(__x86_64__)
    asm volatile("prefetcht0 %0" : : "m"(*p));
#else
    __builtin_prefetch(p, 0, 3);
#endif
}

template <std::size_t Width>
inline bool
MappedEngine::read(const Addr *addrs, std::size_t n, void *out,
                   bool mayFail)
{
    kmuAssert(n <= maxBatch, "batch of %zu exceeds maxBatch", n);
    for (std::size_t i = 0; i < n; ++i) {
        // Checked as addr <= bytes - Width (bytes >= one line), so
        // that an address within Width of 2^64 cannot wrap past it.
        kmuAssert(addrs[i] <= bytes - Width, "read out of bounds: %#llx",
                  (unsigned long long)addrs[i]);
        if constexpr (Width == cacheLineSize)
            kmuAssert(isLineAligned(addrs[i]),
                      "readLines needs aligned addresses");
    }
    accessCount += n;
    access_trace::readBegin(std::uint32_t(n));
    bool armed = mech == Mechanism::Prefetch;
    if (armed && governor != nullptr && governor->degraded()) {
        armed = false;
        recoveryStats.degradedAccesses += n;
    }
    if (armed) {
        for (std::size_t i = 0; i < n; ++i)
            prefetch(addrs[i]);
        yieldCount++;
        sched.yield();
    }
    auto *dst = static_cast<std::uint8_t *>(out);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
        // MappedReadError models a hardware-detected bad read (the
        // load completes poisoned and faults). Survival is a bounded
        // re-issue of the load, re-armed with prefetch + yield when
        // the call was; a read that fails past the budget fails the
        // access.
        std::uint32_t attempts = 0;
        bool read_ok = true;
        while (fault::fire(fault::FaultSite::MappedReadError)) {
            if (attempts == retryPolicy.maxRetries) {
                kmuAssert(mayFail, "mapped read failed %u consecutive "
                          "times", attempts + 1);
                read_ok = false;
                break;
            }
            attempts++;
            recoveryStats.retries++;
            if (armed) {
                prefetch(addrs[i]);
                yieldCount++;
                sched.yield();
            }
        }
        if (governor)
            governor->sample(attempts > 0);
        if (read_ok)
            std::memcpy(dst + i * Width, base + addrs[i], Width);
        ok = ok && read_ok;
    }
    access_trace::readEnd();
    return ok;
}

std::uint64_t
MappedEngine::read64(Addr addr)
{
    std::uint64_t value;
    read<sizeof(value)>(&addr, 1, &value, false);
    return value;
}

AccessStatus
MappedEngine::tryRead64(Addr addr, std::uint64_t &out)
{
    return read<sizeof(out)>(&addr, 1, &out, true)
               ? AccessStatus::Ok
               : AccessStatus::RetriesExhausted;
}

void
MappedEngine::readBatch(const Addr *addrs, std::size_t n,
                        std::uint64_t *out)
{
    read<sizeof(*out)>(addrs, n, out, false);
}

void
MappedEngine::readLines(const Addr *addrs, std::size_t n, void *out)
{
    read<cacheLineSize>(addrs, n, out, false);
}

AccessStatus
MappedEngine::tryReadLines(const Addr *addrs, std::size_t n, void *out)
{
    return read<cacheLineSize>(addrs, n, out, true)
               ? AccessStatus::Ok
               : AccessStatus::RetriesExhausted;
}

void
MappedEngine::writeLine(Addr addr, const void *line)
{
    kmuAssert(isLineAligned(addr), "writeLine needs alignment");
    kmuAssert(addr <= bytes - cacheLineSize, "writeLine out of bounds");
    writeCount++;
    access_trace::writeMark(addr);
    std::memcpy(base + addr, line, cacheLineSize);
}

void
MappedEngine::write64(Addr addr, std::uint64_t value)
{
    kmuAssert(addr <= bytes - sizeof(value), "write64 out of bounds");
    writeCount++;
    std::memcpy(base + addr, &value, sizeof(value));
}

} // namespace kmu
