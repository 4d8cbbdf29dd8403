#include "core/run_result_wire.hh"

#include <cstring>

namespace kmu
{

namespace
{

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(std::uint8_t(v >> shift));
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b)
        v = (v << 8) | p[b];
    return v;
}

double
getF64(const std::uint8_t *p)
{
    const std::uint64_t bits = getU64(p);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // anonymous namespace

std::vector<std::uint8_t>
serializeRunResult(const RunResult &res)
{
    std::vector<std::uint8_t> out;
    out.reserve(runResultWireBytes);
    putU64(out, std::uint64_t(runResultWireVersion) << 32 |
                    runResultWireMagic);
    putU64(out, res.elapsed);
    putU64(out, res.iterations);
    putU64(out, res.workInstrs);
    putU64(out, res.accesses);
    putU64(out, res.writes);
    putF64(out, res.workIpc);
    putF64(out, res.accessesPerUs);
    putF64(out, res.meanReadLatencyNs);
    putF64(out, res.toHostWireGBs);
    putF64(out, res.toHostUsefulGBs);
    putF64(out, res.toDeviceWireGBs);
    putU64(out, res.chipQueuePeak);
    putU64(out, res.prefetchesQueued);
    putU64(out, res.replayMisses);
    putU64(out, res.l1Hits);
    putU64(out, res.l1Misses);
    putU64(out, res.shardCount);
    putU64(out, res.shardRequestsMin);
    putU64(out, res.shardRequestsMax);
    for (std::size_t i = 0; i < runResultWireReservedWords; ++i)
        putU64(out, 0);
    putU64(out, res.serveOffered);
    putU64(out, res.serveCompleted);
    putU64(out, res.serveSloMet);
    putU64(out, res.serveInFlightPeak);
    putF64(out, res.serveP50Ns);
    putF64(out, res.serveP99Ns);
    putF64(out, res.serveP999Ns);
    putF64(out, res.serveMeanLatencyNs);
    putF64(out, res.serveGoodputPerUs);
    for (const std::uint64_t bucket : res.serveLatencyBuckets)
        putU64(out, bucket);
    putU64(out, res.serveLatencyUnderflow);
    putU64(out, res.serveLatencyOverflow);
    putU64(out, res.kernelEvents);
    return out;
}

bool
deserializeRunResult(const std::uint8_t *data, std::size_t size,
                     RunResult &out)
{
    if (size != runResultWireBytes)
        return false;
    if (getU32(data) != runResultWireMagic ||
        getU32(data + 4) != runResultWireVersion)
        return false;

    const std::uint8_t *p = data + 8;
    RunResult r;
    r.elapsed = Tick(getU64(p)); p += 8;
    r.iterations = getU64(p); p += 8;
    r.workInstrs = getU64(p); p += 8;
    r.accesses = getU64(p); p += 8;
    r.writes = getU64(p); p += 8;
    r.workIpc = getF64(p); p += 8;
    r.accessesPerUs = getF64(p); p += 8;
    r.meanReadLatencyNs = getF64(p); p += 8;
    r.toHostWireGBs = getF64(p); p += 8;
    r.toHostUsefulGBs = getF64(p); p += 8;
    r.toDeviceWireGBs = getF64(p); p += 8;
    r.chipQueuePeak = std::uint32_t(getU64(p)); p += 8;
    r.prefetchesQueued = getU64(p); p += 8;
    r.replayMisses = getU64(p); p += 8;
    r.l1Hits = getU64(p); p += 8;
    r.l1Misses = getU64(p); p += 8;
    r.shardCount = std::uint32_t(getU64(p)); p += 8;
    r.shardRequestsMin = getU64(p); p += 8;
    r.shardRequestsMax = getU64(p); p += 8;
    for (std::size_t i = 0; i < runResultWireReservedWords; ++i) {
        if (getU64(p) != 0)
            return false;
        p += 8;
    }
    r.serveOffered = getU64(p); p += 8;
    r.serveCompleted = getU64(p); p += 8;
    r.serveSloMet = getU64(p); p += 8;
    r.serveInFlightPeak = getU64(p); p += 8;
    r.serveP50Ns = getF64(p); p += 8;
    r.serveP99Ns = getF64(p); p += 8;
    r.serveP999Ns = getF64(p); p += 8;
    r.serveMeanLatencyNs = getF64(p); p += 8;
    r.serveGoodputPerUs = getF64(p); p += 8;
    for (std::uint64_t &bucket : r.serveLatencyBuckets) {
        bucket = getU64(p);
        p += 8;
    }
    r.serveLatencyUnderflow = getU64(p); p += 8;
    r.serveLatencyOverflow = getU64(p); p += 8;
    r.kernelEvents = getU64(p);
    out = r;
    return true;
}

} // namespace kmu
