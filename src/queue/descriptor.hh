/**
 * @file
 * Descriptor formats for the application-managed software queues.
 *
 * Mirrors the paper's Section IV-A protocol: the host writes request
 * descriptors into an in-memory Request Queue; the device DMA-reads
 * them (in bursts of eight), performs the access, writes the response
 * data to the host buffer named by the descriptor, and then writes a
 * completion descriptor into the Completion Queue. Completion-queue
 * writes are ordered after the corresponding data writes.
 */

#ifndef KMU_QUEUE_DESCRIPTOR_HH
#define KMU_QUEUE_DESCRIPTOR_HH

#include <cstdint>

#include "common/types.hh"

namespace kmu
{

/**
 * One request, as laid out in host memory (16 bytes).
 *
 * Matches the paper's wire format: "each descriptor contains the
 * address to read, and the target address where the response data is
 * to be stored". The paper studies reads only; this implementation
 * adds line-granular writes (its stated future work) by carrying a
 * one-bit opcode in the low bit of the line-aligned device address —
 * the usual trick when a descriptor format has no spare field.
 */
struct RequestDescriptor
{
    /** Device line address (bit 0: 0 = read, 1 = write; bit 1:
     *  watchdog re-issue). */
    Addr deviceAddr = 0;

    /** Read: host buffer the device writes the 64-byte response
     *  into. Write: host buffer holding the 64 bytes to store. The
     *  host runtime also uses it as the completion tag. */
    Addr hostAddr = 0;

    /** Build a read descriptor for a line-aligned address. */
    static RequestDescriptor
    read(Addr device_line, Addr host)
    {
        return RequestDescriptor{device_line, host};
    }

    /** Build a write descriptor for a line-aligned address. */
    static RequestDescriptor
    write(Addr device_line, Addr host)
    {
        return RequestDescriptor{device_line | 1, host};
    }

    /** True for write descriptors. */
    bool isWrite() const { return (deviceAddr & 1) != 0; }

    /** deviceAddr flag bit of a watchdog re-issue (below the line
     *  offset, like the opcode bit). */
    static constexpr Addr reissueBit = 2;

    /**
     * The same request, marked as a host watchdog re-issue. The
     * device serves it like any other, but its replay check skips
     * it: the first attempt already stood for this access in the
     * application's request stream, and a transport retry must not
     * be counted against the recording.
     */
    RequestDescriptor
    asReissue() const
    {
        return RequestDescriptor{deviceAddr | reissueBit, hostAddr};
    }

    /** True for watchdog re-issues. */
    bool isReissue() const { return (deviceAddr & reissueBit) != 0; }

    /** Device line address with the opcode and re-issue bits
     *  stripped. */
    Addr lineAddr() const { return deviceAddr & ~(Addr(1) | reissueBit); }

    /** @{
     * Generation tagging for retried requests.
     *
     * Host virtual addresses on x86-64 fit in 48 bits, so bits
     * 48..55 of hostAddr are free to carry an 8-bit generation tag.
     * The device echoes hostAddr verbatim into the completion, so
     * the host runtime can tell a fresh completion from a stale one
     * that raced with a watchdog re-issue of the same buffer. The
     * 16-byte wire layout is untouched.
     */
    static constexpr unsigned hostTagShift = 48;
    static constexpr Addr hostTagMask = Addr(0xff) << hostTagShift;

    static Addr
    taggedHost(Addr host, std::uint8_t gen)
    {
        return (host & ~hostTagMask) | (Addr(gen) << hostTagShift);
    }

    /** Host buffer address with the generation tag stripped. */
    static Addr hostPtr(Addr tagged) { return tagged & ~hostTagMask; }

    /** Generation tag carried in a (possibly tagged) host address. */
    static std::uint8_t
    hostTag(Addr tagged)
    {
        return std::uint8_t((tagged & hostTagMask) >> hostTagShift);
    }
    /** @} */
};

static_assert(sizeof(RequestDescriptor) == 16,
              "descriptor layout must match the 16-byte wire format");

/**
 * One completion record: echo of hostAddr plus an end-to-end CRC-32C
 * of the 64 response bytes (exact-data contract check; zero for
 * writes, which carry no response data). Only the first
 * completionWireBytes travel on the modeled wire — the CRC models
 * metadata the real device folds into its data TLP digest, so the
 * timing model's byte accounting is unchanged.
 */
struct CompletionDescriptor
{
    Addr hostAddr = 0;
    std::uint32_t crc = 0;
    std::uint32_t reserved = 0;
};

/** Bytes of a completion record on the modeled wire (hostAddr echo). */
constexpr std::uint32_t completionWireBytes = 8;

/** Descriptors fetched per DMA burst read (paper Section IV-A). */
constexpr std::uint32_t descriptorBurst = 8;

} // namespace kmu

#endif // KMU_QUEUE_DESCRIPTOR_HH
