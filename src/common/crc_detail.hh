/**
 * @file
 * The two CRC-32C implementations behind crc32c(), exposed for tests
 * only (not part of the public API). crc32c() picks one at first use
 * from the CPU's feature bits; tests call both directly so each is
 * checked against the RFC 3720 vectors and against the other.
 */

#ifndef KMU_COMMON_CRC_DETAIL_HH
#define KMU_COMMON_CRC_DETAIL_HH

#include <cstddef>
#include <cstdint>

namespace kmu
{
namespace detail
{

/** Bytewise table-driven CRC-32C: the portable fallback and the
 *  reference the hardware path is tested against. */
std::uint32_t crc32cTable(const void *data, std::size_t len);

/** True when this CPU has the SSE4.2 crc32 instruction. */
bool crc32cHardwareSupported();

/** SSE4.2 `crc32`, 8 bytes per step. Only call when
 *  crc32cHardwareSupported() is true. */
std::uint32_t crc32cHardware(const void *data, std::size_t len);

} // namespace detail
} // namespace kmu

#endif // KMU_COMMON_CRC_DETAIL_HH
