/**
 * @file
 * CRC-32C (Castagnoli) — the payload-integrity check of the
 * device↔host exact-data contract.
 *
 * The device computes the CRC of every cache line it serves and
 * carries it in the completion record; the host recomputes it over
 * the DMA-written buffer before trusting the data. A mismatch means
 * the payload was corrupted between the device's backing store and
 * host memory (provoked by the ResponseBitFlip fault site), and the
 * access must be re-issued.
 *
 * Both sides run it on every SW-queue read, so it sits on the round
 * trip twice. On x86-64 CPUs with SSE4.2 it uses the `crc32`
 * instruction, 8 bytes per step; elsewhere a bytewise table. The path
 * is chosen once, from the CPU's feature bits; both give identical
 * values. One 64 B line costs ~150 ns with the table and ~14 ns with
 * the instruction (4-vCPU Xeon VM, back-to-back dependent calls).
 */

#ifndef KMU_COMMON_CRC_HH
#define KMU_COMMON_CRC_HH

#include <cstddef>
#include <cstdint>

namespace kmu
{

/** CRC-32C of @p len bytes at @p data (seed/xorout per RFC 3720). */
std::uint32_t crc32c(const void *data, std::size_t len);

} // namespace kmu

#endif // KMU_COMMON_CRC_HH
