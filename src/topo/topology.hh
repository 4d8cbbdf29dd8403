/**
 * @file
 * kmu::topo — multi-device shard topology.
 *
 * The paper's platform hangs one microsecond-latency device off one
 * PCIe link; this subsystem generalizes the model to N smaller
 * devices on N links ("what if the capacity came from N devices?").
 * A TopologyConfig describes how many shards exist, how host line
 * addresses interleave across them, and how the chip-level queue
 * budget is provisioned per link. Routing is a pure function of the
 * address, so both the timing model (SimSystem) and the real-time
 * runtime (SwQueueEngine) shard identically.
 *
 * Shard identity also travels on the wire: descriptors' hostAddr
 * fields carry the shard id in bits 56..61 — directly above the
 * 8-bit generation tags in bits 48..55 (queue/descriptor.hh) and
 * still clear of x86-64's 48-bit virtual addresses — so a completion
 * can always be attributed to the link it came back on, and a record
 * arriving on the wrong shard's completion queue is detectable.
 */

#ifndef KMU_TOPO_TOPOLOGY_HH
#define KMU_TOPO_TOPOLOGY_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "queue/descriptor.hh"

namespace kmu
{
namespace topo
{

/** Granularity at which host addresses interleave across shards. */
enum class Interleave
{
    CacheLine, //!< consecutive 64 B lines round-robin across shards
    Page       //!< consecutive 4 KiB pages round-robin across shards
};

/**
 * How the chip-level PCIe-path queue budget is provisioned when the
 * device population grows from one link to N.
 */
enum class ChipQueuePolicy
{
    /**
     * Every link brings its own full-size root-port queue (the
     * paper's measured 14 entries *per link*): N physical links mean
     * N independent queues. This is what real multi-slot topologies
     * look like, and is the default.
     */
    Replicated,

    /**
     * One port's credit budget is sliced across the shards
     * (capacity / shards, at least 1 per shard): models carving a
     * single bifurcated slot into N narrower links without gaining
     * queue entries. Separates "queue-entries bottleneck" from
     * "single-link bottleneck" in the abl_sharding sweep.
     */
    Partitioned
};

/** Interleave unit in bytes. */
constexpr std::uint64_t interleavePageBytes = 4096;

/** @{
 * hostAddr shard-id bits.
 *
 * Bits 48..55 hold the 8-bit generation tag
 * (RequestDescriptor::hostTagMask); bits 56..61 are still free and
 * hold the shard id, capping the topology at 64 shards. Bits 62..63
 * stay clear. The packing must never collide with the generation
 * tags — tests/topo/shard_bits_test.cc walks the boundary cases.
 */
constexpr unsigned shardTagShift = 56;
constexpr unsigned shardTagBits = 6;
constexpr std::uint32_t maxShards = 1u << shardTagBits;
constexpr Addr shardTagMask = Addr(maxShards - 1) << shardTagShift;

static_assert((shardTagMask & RequestDescriptor::hostTagMask) == 0,
              "shard-id bits collide with the generation tag bits");
static_assert(shardTagShift >= RequestDescriptor::hostTagShift + 8,
              "shard-id field must sit above the 8-bit generation tag");
static_assert((shardTagMask >> 62) == 0,
              "shard-id field must leave bits 62..63 clear");
/** @} */

/** Stamp @p shard into the shard-id field of @p host. */
inline Addr
taggedShard(Addr host, std::uint32_t shard)
{
    return (host & ~shardTagMask) |
           (Addr(shard & (maxShards - 1)) << shardTagShift);
}

/** Shard id carried in a (possibly tagged) host address. */
inline std::uint32_t
shardTag(Addr tagged)
{
    return std::uint32_t((tagged & shardTagMask) >> shardTagShift);
}

/** Host address with the shard-id field cleared. */
inline Addr
stripShard(Addr tagged)
{
    return tagged & ~shardTagMask;
}

/** Static shard topology of one system. */
struct TopologyConfig
{
    /** Device shard count; 1 reproduces the single-device model
     *  exactly (routing degenerates to the identity). */
    std::uint32_t shards = 1;

    /** Address-to-shard interleaving granularity. */
    Interleave interleave = Interleave::CacheLine;

    /** Chip-queue provisioning per link (memory-mapped paths). */
    ChipQueuePolicy chipQueuePolicy = ChipQueuePolicy::Replicated;
};

/** Shard owning host line address @p addr under topology @p topo. */
inline std::uint32_t
shardOf(Addr addr, const TopologyConfig &topo)
{
    if (topo.shards <= 1)
        return 0;
    const std::uint64_t unit = topo.interleave == Interleave::Page
                                   ? interleavePageBytes
                                   : cacheLineSize;
    return std::uint32_t((addr / unit) % topo.shards);
}

/** Per-shard chip-queue capacity out of @p total entries. */
inline std::uint32_t
chipQueueSlice(std::uint32_t total, const TopologyConfig &topo)
{
    if (topo.shards <= 1 ||
        topo.chipQueuePolicy == ChipQueuePolicy::Replicated) {
        return total;
    }
    const std::uint32_t slice = total / topo.shards;
    return slice > 0 ? slice : 1;
}

/**
 * Component name for shard @p shard: the bare @p base when the
 * topology has a single shard (so shards=1 systems keep the exact
 * pre-sharding stat and trace names), "<base>_s<shard>" otherwise.
 */
inline std::string
shardName(const std::string &base, std::uint32_t shard,
          std::uint32_t shards)
{
    if (shards <= 1)
        return base;
    return base + csprintf("_s%u", shard);
}

/**
 * Failover target for a request whose natural owner @p natural is
 * not routable: the surviving shards (set bits of @p routableMask
 * below @p shards, excluding @p natural) split the refugee traffic,
 * selected by @p salt in ring order starting after the natural owner
 * — so under either interleave a quarantined shard's keys spread
 * across *all* siblings instead of piling onto one. Pure function:
 * the health controller and the tests route identically. Returns
 * @p natural when no sibling is routable.
 */
inline std::uint32_t
failoverShard(std::uint32_t natural, std::uint64_t routableMask,
              std::uint32_t shards, std::uint64_t salt)
{
    if (shards <= 1)
        return natural;
    std::uint32_t candidates = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        if (s != natural && (routableMask >> s & 1u))
            candidates++;
    }
    if (candidates == 0)
        return natural;
    std::uint32_t pick = std::uint32_t(salt % candidates);
    for (std::uint32_t i = 1; i < shards; ++i) {
        const std::uint32_t s = (natural + i) % shards;
        if ((routableMask >> s & 1u) == 0)
            continue;
        if (pick == 0)
            return s;
        pick--;
    }
    return natural; // unreachable: candidates > 0
}

/** Stable short name of an interleave mode (CLI, CSV columns). */
const char *interleaveName(Interleave mode);

/** Stable short name of a chip-queue policy. */
const char *chipQueuePolicyName(ChipQueuePolicy policy);

} // namespace topo
} // namespace kmu

#endif // KMU_TOPO_TOPOLOGY_HH
