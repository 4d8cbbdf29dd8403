#include "common/crc.hh"

#include <array>
#include <cstring>

#include "common/crc_detail.hh"
#include "common/logging.hh"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define KMU_CRC_HAVE_SSE42 1
#endif

namespace kmu
{

namespace
{

// Reflected CRC-32C table for the Castagnoli polynomial 0x1EDC6F41
// (reflected form 0x82F63B78), built at compile time.
constexpr std::array<std::uint32_t, 256>
buildTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> crcTable = buildTable();

using CrcFn = std::uint32_t (*)(const void *, std::size_t);

CrcFn
pickImplementation()
{
    return detail::crc32cHardwareSupported() ? detail::crc32cHardware
                                             : detail::crc32cTable;
}

} // anonymous namespace

namespace detail
{

std::uint32_t
crc32cTable(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        crc = crcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

#ifdef KMU_CRC_HAVE_SSE42

bool
crc32cHardwareSupported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

// The instruction implements the same reflected Castagnoli update as
// the table, so seeding and final inversion are unchanged.
__attribute__((target("sse4.2"))) std::uint32_t
crc32cHardware(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t crc = 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word)); // unaligned-safe load
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = std::uint32_t(crc);
    for (; len > 0; ++p, --len)
        crc32 = _mm_crc32_u8(crc32, *p);
    return crc32 ^ 0xFFFFFFFFu;
}

#else // !KMU_CRC_HAVE_SSE42

bool
crc32cHardwareSupported()
{
    return false;
}

std::uint32_t
crc32cHardware(const void *, std::size_t)
{
    panic("CRC-32C hardware path is x86-64 only");
}

#endif // KMU_CRC_HAVE_SSE42

} // namespace detail

std::uint32_t
crc32c(const void *data, std::size_t len)
{
    // Resolved on first use, so callers in other translation units'
    // static initializers never see an unpicked implementation.
    static const CrcFn impl = pickImplementation();
    return impl(data, len);
}

} // namespace kmu
