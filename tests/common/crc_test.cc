/**
 * @file
 * CRC-32C: the RFC 3720 §B.4 vectors and the "123456789" check value
 * on both implementations (SSE4.2 and bytewise table), and a seeded
 * comparison of the two over every short length and misalignment.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/crc.hh"
#include "common/crc_detail.hh"
#include "common/random.hh"

namespace kmu
{
namespace
{

using CrcFn = std::uint32_t (*)(const void *, std::size_t);

struct Vector
{
    const char *name;
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc;
};

std::vector<Vector>
knownVectors()
{
    std::vector<std::uint8_t> up(32), down(32);
    for (std::size_t i = 0; i < 32; ++i) {
        up[i] = std::uint8_t(i);
        down[i] = std::uint8_t(31 - i);
    }
    const char digits[] = "123456789";
    return {
        {"32 x 0x00", std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu},
        {"32 x 0xFF", std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u},
        {"0x00..0x1F", up, 0x46DD794Eu},
        {"0x1F..0x00", down, 0x113FDB5Cu},
        {"123456789",
         std::vector<std::uint8_t>(digits, digits + sizeof(digits) - 1),
         0xE3069283u},
    };
}

void
expectKnownVectors(CrcFn crc)
{
    for (const Vector &v : knownVectors())
        EXPECT_EQ(crc(v.bytes.data(), v.bytes.size()), v.crc) << v.name;
}

TEST(CrcTest, TablePathMatchesKnownVectors)
{
    expectKnownVectors(detail::crc32cTable);
}

TEST(CrcTest, HardwarePathMatchesKnownVectors)
{
    if (!detail::crc32cHardwareSupported())
        GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
    expectKnownVectors(detail::crc32cHardware);
}

TEST(CrcTest, DispatchedPathMatchesKnownVectors)
{
    expectKnownVectors(crc32c);
}

TEST(CrcTest, HardwareMatchesTableOnEveryShortLengthAndOffset)
{
    if (!detail::crc32cHardwareSupported())
        GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
    // Lengths 0..130 cover the empty input, the 8-byte loop with
    // every tail length, and a full cache line plus change; offsets
    // 0..7 put the 8-byte loads at every misalignment.
    std::array<std::uint8_t, 130 + 8> buf{};
    Rng rng(0xC4C32Cu);
    for (std::uint8_t &b : buf)
        b = std::uint8_t(rng.next());
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 130; ++len) {
            ASSERT_EQ(detail::crc32cHardware(buf.data() + off, len),
                      detail::crc32cTable(buf.data() + off, len))
                << "offset " << off << ", length " << len;
        }
    }
}

} // anonymous namespace
} // namespace kmu
