/**
 * @file
 * Fundamental scalar types shared by every kmu module.
 *
 * The timing model follows the gem5 convention of an integral global
 * time base ("ticks"); kmu fixes one tick to one picosecond, which is
 * fine enough to express both sub-nanosecond core events and
 * multi-microsecond device latencies without rounding.
 */

#ifndef KMU_COMMON_TYPES_HH
#define KMU_COMMON_TYPES_HH

#include <cstdint>

namespace kmu
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Largest representable tick; used as "never" by the event queue. */
constexpr Tick maxTick = ~Tick(0);

/** Physical (device or host) byte address. */
using Addr = std::uint64_t;

/** Identifier of a processor core in the simulated system. */
using CoreId = std::uint32_t;

/** Identifier of a user-level thread within one core. */
using ThreadId = std::uint32_t;

/** Bytes in one cache line; all device accesses are line-granular. */
constexpr std::uint32_t cacheLineSize = 64;

/** Shift amount corresponding to cacheLineSize. */
constexpr std::uint32_t cacheLineShift = 6;

/** Round an address down to its containing cache-line base. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~Addr(cacheLineSize - 1);
}

/** True iff the address is the first byte of a cache line. */
constexpr bool
isLineAligned(Addr addr)
{
    return (addr & Addr(cacheLineSize - 1)) == 0;
}

/** Line number (address divided by line size). */
constexpr Addr
lineNumber(Addr addr)
{
    return addr >> cacheLineShift;
}

} // namespace kmu

#endif // KMU_COMMON_TYPES_HH
