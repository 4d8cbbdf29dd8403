#include "access/on_demand_engine.hh"

#include <cstring>

#include "access/access_trace.hh"
#include "common/logging.hh"
#include "fault/fault_plan.hh"

namespace kmu
{

OnDemandEngine::OnDemandEngine(std::uint8_t *region_base,
                               std::size_t region_bytes,
                               fault::DegradationGovernor *gov,
                               fault::RetryPolicy policy)
    : base(region_base), bytes(region_bytes), governor(gov),
      retryPolicy(policy)
{
    kmuAssert(base != nullptr, "on-demand engine needs a region");
}

bool
OnDemandEngine::surviveMappedRead(bool mayFail)
{
    // MappedReadError models a hardware-detected bad MMIO read (the
    // load completes poisoned and faults). Survival is a bounded
    // re-issue of the load; a read that fails past the budget fails
    // the access.
    std::uint32_t attempts = 0;
    bool ok = true;
    while (fault::fire(fault::FaultSite::MappedReadError)) {
        if (attempts == retryPolicy.maxRetries) {
            kmuAssert(mayFail, "mapped read failed %u consecutive times",
                      attempts + 1);
            ok = false;
            break;
        }
        attempts++;
        recoveryStats.retries++;
    }
    if (governor)
        governor->sample(attempts > 0);
    return ok;
}

std::uint64_t
OnDemandEngine::read64(Addr addr)
{
    kmuAssert(addr + 8 <= bytes, "read64 out of bounds: %#llx",
              (unsigned long long)addr);
    accessCount++;
    access_trace::readBegin(1);
    surviveMappedRead(false);
    std::uint64_t value;
    std::memcpy(&value, base + addr, sizeof(value));
    access_trace::readEnd();
    return value;
}

AccessStatus
OnDemandEngine::tryRead64(Addr addr, std::uint64_t &out)
{
    // read64() with the failure reported; kept apart so the
    // fault-free read64() stays one call deep.
    kmuAssert(addr + 8 <= bytes, "read64 out of bounds: %#llx",
              (unsigned long long)addr);
    accessCount++;
    access_trace::readBegin(1);
    const bool ok = surviveMappedRead(true);
    if (ok)
        std::memcpy(&out, base + addr, sizeof(out));
    access_trace::readEnd();
    return ok ? AccessStatus::Ok : AccessStatus::RetriesExhausted;
}

void
OnDemandEngine::readBatch(const Addr *addrs, std::size_t n,
                          std::uint64_t *out)
{
    kmuAssert(n <= maxBatch, "batch of %zu exceeds maxBatch", n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = read64(addrs[i]);
}

bool
OnDemandEngine::readLineBatch(const Addr *addrs, std::size_t n,
                              void *out, bool mayFail)
{
    kmuAssert(n <= maxBatch, "batch of %zu exceeds maxBatch", n);
    access_trace::readBegin(std::uint32_t(n));
    auto *dst = static_cast<std::uint8_t *>(out);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
        kmuAssert(isLineAligned(addrs[i]), "readLines needs aligned "
                  "addresses");
        kmuAssert(addrs[i] + cacheLineSize <= bytes,
                  "readLines out of bounds");
        accessCount++;
        if (surviveMappedRead(mayFail))
            std::memcpy(dst + i * cacheLineSize, base + addrs[i],
                        cacheLineSize);
        else
            ok = false;
    }
    access_trace::readEnd();
    return ok;
}

void
OnDemandEngine::readLines(const Addr *addrs, std::size_t n, void *out)
{
    readLineBatch(addrs, n, out, false);
}

AccessStatus
OnDemandEngine::tryReadLines(const Addr *addrs, std::size_t n, void *out)
{
    return readLineBatch(addrs, n, out, true)
               ? AccessStatus::Ok
               : AccessStatus::RetriesExhausted;
}

void
OnDemandEngine::writeLine(Addr addr, const void *line)
{
    kmuAssert(isLineAligned(addr), "writeLine needs alignment");
    kmuAssert(addr + cacheLineSize <= bytes, "writeLine out of bounds");
    writeCount++;
    access_trace::writeMark(addr);
    std::memcpy(base + addr, line, cacheLineSize);
}

void
OnDemandEngine::write64(Addr addr, std::uint64_t value)
{
    kmuAssert(addr + 8 <= bytes, "write64 out of bounds");
    writeCount++;
    std::memcpy(base + addr, &value, sizeof(value));
}

} // namespace kmu
