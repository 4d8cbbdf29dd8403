#include "access/prefetch_engine.hh"

#include <cstring>

#include "access/access_trace.hh"
#include "common/logging.hh"
#include "fault/fault_plan.hh"

namespace kmu
{

PrefetchEngine::PrefetchEngine(std::uint8_t *region_base,
                               std::size_t region_bytes,
                               Scheduler &scheduler,
                               fault::DegradationGovernor *gov,
                               fault::RetryPolicy policy)
    : base(region_base), bytes(region_bytes), sched(scheduler),
      governor(gov), retryPolicy(policy)
{
    kmuAssert(base != nullptr, "prefetch engine needs a region");
}

bool
PrefetchEngine::degradedNow() const
{
    return governor != nullptr && governor->degraded();
}

bool
PrefetchEngine::surviveMappedRead(Addr addr, bool degraded,
                                  bool mayFail)
{
    // Detected bad mapped read: re-arm (prefetch + yield, unless the
    // governor already dropped us to on-demand) and re-issue,
    // bounded by the retry policy; a read that fails past the budget
    // fails the access.
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
        if (!degraded) {
            prefetch(addr);
            yieldCount++;
            sched.yield();
        }
    }
    if (governor)
        governor->sample(attempts > 0);
    return ok;
}

void
PrefetchEngine::prefetch(Addr addr) const
{
    const std::uint8_t *p = base + addr;
#if defined(__x86_64__)
    asm volatile("prefetcht0 %0" : : "m"(*p));
#else
    __builtin_prefetch(p, 0, 3);
#endif
}

std::uint64_t
PrefetchEngine::read64(Addr addr)
{
    kmuAssert(addr + 8 <= bytes, "read64 out of bounds: %#llx",
              (unsigned long long)addr);
    accessCount++;
    access_trace::readBegin(1);
    const bool degraded = degradedNow();
    if (degraded) {
        recoveryStats.degradedAccesses++;
    } else {
        prefetch(addr);
        yieldCount++;
        sched.yield();
    }
    surviveMappedRead(addr, degraded, false);
    std::uint64_t value;
    std::memcpy(&value, base + addr, sizeof(value));
    access_trace::readEnd();
    return value;
}

AccessStatus
PrefetchEngine::tryRead64(Addr addr, std::uint64_t &out)
{
    // read64() with the failure reported; kept apart so the
    // fault-free read64() stays one call deep.
    kmuAssert(addr + 8 <= bytes, "read64 out of bounds: %#llx",
              (unsigned long long)addr);
    accessCount++;
    access_trace::readBegin(1);
    const bool degraded = degradedNow();
    if (degraded) {
        recoveryStats.degradedAccesses++;
    } else {
        prefetch(addr);
        yieldCount++;
        sched.yield();
    }
    const bool ok = surviveMappedRead(addr, degraded, true);
    if (ok)
        std::memcpy(&out, base + addr, sizeof(out));
    access_trace::readEnd();
    return ok ? AccessStatus::Ok : AccessStatus::RetriesExhausted;
}

void
PrefetchEngine::readBatch(const Addr *addrs, std::size_t n,
                          std::uint64_t *out)
{
    kmuAssert(n <= maxBatch, "batch of %zu exceeds maxBatch", n);
    access_trace::readBegin(std::uint32_t(n));
    const bool degraded = degradedNow();
    if (degraded) {
        recoveryStats.degradedAccesses += n;
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            kmuAssert(addrs[i] + 8 <= bytes, "readBatch out of bounds");
            prefetch(addrs[i]);
        }
        yieldCount++;
        sched.yield();
    }
    accessCount += n;
    for (std::size_t i = 0; i < n; ++i) {
        kmuAssert(addrs[i] + 8 <= bytes, "readBatch out of bounds");
        surviveMappedRead(addrs[i], degraded, false);
        std::memcpy(&out[i], base + addrs[i], sizeof(out[0]));
    }
    access_trace::readEnd();
}

bool
PrefetchEngine::readLineBatch(const Addr *addrs, std::size_t n,
                              void *out, bool mayFail)
{
    kmuAssert(n <= maxBatch, "batch of %zu exceeds maxBatch", n);
    access_trace::readBegin(std::uint32_t(n));
    auto *dst = static_cast<std::uint8_t *>(out);
    const bool degraded = degradedNow();
    if (degraded) {
        recoveryStats.degradedAccesses += n;
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            kmuAssert(isLineAligned(addrs[i]), "readLines needs "
                      "aligned addresses");
            kmuAssert(addrs[i] + cacheLineSize <= bytes,
                      "readLines out of bounds");
            prefetch(addrs[i]);
        }
        yieldCount++;
        sched.yield();
    }
    accessCount += n;
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
        kmuAssert(isLineAligned(addrs[i]), "readLines needs aligned "
                  "addresses");
        kmuAssert(addrs[i] + cacheLineSize <= bytes,
                  "readLines out of bounds");
        if (surviveMappedRead(addrs[i], degraded, mayFail))
            std::memcpy(dst + i * cacheLineSize, base + addrs[i],
                        cacheLineSize);
        else
            ok = false;
    }
    access_trace::readEnd();
    return ok;
}

void
PrefetchEngine::readLines(const Addr *addrs, std::size_t n, void *out)
{
    readLineBatch(addrs, n, out, false);
}

AccessStatus
PrefetchEngine::tryReadLines(const Addr *addrs, std::size_t n, void *out)
{
    return readLineBatch(addrs, n, out, true)
               ? AccessStatus::Ok
               : AccessStatus::RetriesExhausted;
}

void
PrefetchEngine::writeLine(Addr addr, const void *line)
{
    kmuAssert(isLineAligned(addr), "writeLine needs alignment");
    kmuAssert(addr + cacheLineSize <= bytes, "writeLine out of bounds");
    writeCount++;
    access_trace::writeMark(addr);
    std::memcpy(base + addr, line, cacheLineSize);
}

void
PrefetchEngine::write64(Addr addr, std::uint64_t value)
{
    kmuAssert(addr + 8 <= bytes, "write64 out of bounds");
    writeCount++;
    std::memcpy(base + addr, &value, sizeof(value));
}

} // namespace kmu
