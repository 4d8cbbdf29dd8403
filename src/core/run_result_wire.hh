/**
 * @file
 * Versioned, bit-exact wire format for RunResult.
 *
 * The parallel sweep runner (src/sweep) ships each RunResult from a
 * forked worker back to the parent over a pipe. Determinism of the
 * regenerated figures hinges on this round trip being *bit-exact*:
 * doubles cross the wire as their IEEE-754 bit patterns, never as
 * decimal text, so a point computed in a worker formats to exactly
 * the same CSV cell as the same point computed in-process.
 *
 * The format is versioned so a stale worker (exec'd from an old
 * binary — impossible with fork, but cheap to guard) or a truncated
 * frame is rejected instead of silently misdecoded.
 */

#ifndef KMU_CORE_RUN_RESULT_WIRE_HH
#define KMU_CORE_RUN_RESULT_WIRE_HH

#include <cstdint>
#include <vector>

#include "core/sim_system.hh"

namespace kmu
{

/** 'K''M''R''R' little-endian. */
constexpr std::uint32_t runResultWireMagic = 0x5252'4d4b;

/** Bump whenever a field is added/removed/reordered. */
constexpr std::uint32_t runResultWireVersion = 6;

/** Zero words between the shard block and the serving block. They
 *  keep v6's layout, and so every pinned wire digest, until the next
 *  version bump drops them; a frame with a nonzero reserved word is
 *  rejected. */
constexpr std::size_t runResultWireReservedWords = 5;

/** Serialized size: magic + version + 19 base 8-byte fields + the
 *  reserved words + the serving block (4 counters, 5 doubles,
 *  32-bucket histogram with under/overflow = 43 more 8-byte fields)
 *  + the kernel event count. The kernel wall time deliberately stays
 *  OUT of the wire: the serialized result is a pure function of the
 *  configuration (the determinism gates byte-compare it across
 *  runs), and host timing never is. Workers report timing in the
 *  frame header. */
constexpr std::size_t runResultWireBytes =
    8 + (19 + runResultWireReservedWords) * 8 +
    (4 + 5 + serveLatencyBucketCount + 2) * 8 + 1 * 8;

/** Encode @p res; always exactly runResultWireBytes long. */
std::vector<std::uint8_t> serializeRunResult(const RunResult &res);

/**
 * Decode @p size bytes at @p data into @p out. Returns false (and
 * leaves @p out untouched) on bad magic, version mismatch, a
 * short/long buffer, or a nonzero reserved word.
 */
bool deserializeRunResult(const std::uint8_t *data, std::size_t size,
                          RunResult &out);

} // namespace kmu

#endif // KMU_CORE_RUN_RESULT_WIRE_HH
