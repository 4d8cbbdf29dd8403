/**
 * @file
 * Deterministic, zero-overhead-when-off tracing core.
 *
 * A TraceBuffer is a fixed-capacity ring of binary records stamped
 * with *simulated* ticks (or, in the host runtime where no event
 * queue exists, a logical sequence clock) — never wall-clock time,
 * so two runs of the same configuration produce byte-identical
 * traces.
 *
 * Instrumentation sites throughout the stack call the inline hook
 * functions below (trace::begin / end / instant / counter). Each
 * hook compiles to a single load-and-branch on the global sink
 * pointer: with no sink installed, tracing costs one predictable
 * branch per site and records nothing, which is what keeps the
 * figure CSVs byte-identical whether or not the binary carries the
 * instrumentation.
 *
 * Record taxonomy (the access lifecycle, end to end):
 *
 *   host runtime   AccessRead / AccessWrite / FiberRun / FiberBlock
 *   core issue     LfbResident / LfbMerge / LfbReject
 *   chip uncore    UncoreEnter / UncoreStall / QueueDepth
 *   off chip       PcieTlp / DramRead
 *   device         DevService / DevReplayMatch / DevReplayMiss /
 *                  DevWrite / Doorbell / DescBurst / DescService
 *   return path    Completion
 *
 * Span matching key is (kind, id, track): Begin and End records with
 * equal keys delimit one span; overlapping spans of the same kind
 * use distinct ids (line address, TLP sequence number, fiber index).
 */

#ifndef KMU_TRACE_TRACE_HH
#define KMU_TRACE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace kmu
{
namespace trace
{

/** What happened (see the taxonomy table above). */
enum class Kind : std::uint8_t
{
    AccessRead,     //!< span: engine read issue -> data handed to app
    AccessWrite,    //!< instant: posted write left the engine
    FiberRun,       //!< span: scheduler dispatch -> back to scheduler
    FiberBlock,     //!< instant: fiber blocked on a completion
    FiberUnblock,   //!< instant: fiber made ready again
    LfbResident,    //!< span: LFB entry allocated -> filled
    LfbMerge,       //!< instant: request coalesced into a live miss
    LfbReject,      //!< instant: LFB full (prefetch drop / load wait)
    UncoreEnter,    //!< instant: chip-level queue slot granted
    UncoreStall,    //!< instant: arrival found the chip queue full
    PcieTlp,        //!< span: TLP enters link -> delivered far side
    DramRead,       //!< span: DRAM access issue -> fill
    DevService,     //!< span: request at device -> response sent
    DevReplayMatch, //!< instant: request matched the replay window
    DevReplayMiss,  //!< instant: spurious request, on-demand path
    DevWrite,       //!< instant: posted write absorbed at the device
    Doorbell,       //!< instant: doorbell MMIO write
    DescBurst,      //!< span: descriptor DMA burst issue -> processed
    DescService,    //!< span: descriptor accepted -> completion sent
    Completion,     //!< instant: completion visible to the host
    QueueDepth,     //!< counter: sampled queue occupancy (arg=depth)
    HealthState,    //!< no producer; kept so later kinds keep their
                    //!< numbers (traces store kinds by number)
    Request         //!< span: serving-mode request arrival ->
                    //!< retirement (id=request seq, arg=latency ns)
};

/** Number of distinct Kind values (for aggregation tables). */
constexpr std::size_t kindCount = std::size_t(Kind::Request) + 1;

/** Stable lower-case name of a record kind. */
const char *kindName(Kind kind);

/** Role of one record within its kind. */
enum class Phase : std::uint8_t
{
    Begin,   //!< span opens
    End,     //!< span closes
    Instant, //!< point event
    Counter  //!< sampled value (arg carries it)
};

constexpr std::size_t phaseCount = std::size_t(Phase::Counter) + 1;

/**
 * One binary trace record; 24 bytes on the wire (serialized field by
 * field, little-endian, so the file format is independent of struct
 * padding and host endianness).
 */
struct Record
{
    Tick tick = 0;           //!< sim tick (ps) or logical sequence
    std::uint64_t id = 0;    //!< span/flow id within (kind, track)
    std::uint32_t arg = 0;   //!< payload: bytes, depth, retries, ...
    Kind kind = Kind::AccessRead;
    Phase phase = Phase::Instant;
    std::uint16_t track = 0; //!< core id / fiber lane / direction
};

/** Bytes one record occupies in the binary file format. */
constexpr std::size_t recordWireBytes = 24;

/**
 * Ring-buffered trace recorder.
 *
 * The ring keeps the most recent `capacity` records; older records
 * are overwritten (recorded() keeps the true total so consumers can
 * tell a truncated trace from a complete one). Recording is guarded
 * by a mutex only for the host runtime's threaded device mode; the
 * timing model is single-threaded and never contends.
 */
class TraceBuffer
{
  public:
    /** Timestamp source; when unset a logical sequence clock runs. */
    using Clock = std::function<Tick()>;

    explicit TraceBuffer(std::size_t capacity = 1u << 20);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Install the tick source (e.g. the EventQueue's curTick). */
    void setClock(Clock clock);

    /** Append one record (thread-safe). */
    void record(Kind kind, Phase phase, std::uint64_t id,
                std::uint32_t arg, std::uint16_t track);

    /**
     * Attach a human-readable name to a numeric id (queue identity,
     * track lane). Idempotent; exporters use the table for counter
     * series and track labels.
     */
    void registerName(std::uint64_t id, const std::string &name);

    /** Total records ever recorded (including overwritten ones). */
    std::uint64_t recorded() const;

    /** Records currently retained (<= capacity). */
    std::size_t size() const;

    std::size_t capacity() const { return ring.size(); }

    /** Retained record @p i, 0 = oldest retained. */
    Record at(std::size_t i) const;

    /** Copy the retained records out, oldest first. */
    std::vector<Record> snapshot() const;

    /** The registered (id, name) pairs, in registration order. */
    std::vector<std::pair<std::uint64_t, std::string>> names() const;

    /** Drop all records and names; the logical clock restarts. */
    void clear();

    /** Serialize header + retained records + name table to @p path. */
    void writeFile(const std::string &path) const;

    /** Contents of one trace file, deserialized. */
    struct FileData
    {
        Tick ticksPerSec = 0;        //!< tick base of the producer
        std::uint64_t recorded = 0;  //!< total including overwritten
        std::vector<Record> records; //!< retained, oldest first
        std::vector<std::pair<std::uint64_t, std::string>> names;
    };

    /** Parse a file written by writeFile(); fatal() on a bad file. */
    static FileData readFile(const std::string &path);

  private:
    mutable std::mutex mutex;
    Clock clock;
    Tick logicalNow = 0;
    std::vector<Record> ring;
    std::uint64_t total = 0;
    std::vector<std::pair<std::uint64_t, std::string>> nameTable;
};

namespace detail
{
extern std::atomic<TraceBuffer *> gSink
    KMU_ATOMIC_ROLE(main_installs, all_read);
} // namespace detail

/** The installed sink, or nullptr when tracing is off. */
inline TraceBuffer *
sink()
{
    return detail::gSink.load(std::memory_order_acquire);
}

/** Install (or, with nullptr, remove) the process-wide sink. */
void setSink(TraceBuffer *buffer);

/** True when a sink is installed. */
inline bool
active()
{
    return sink() != nullptr;
}

/** @{ Instrumentation hooks: a null-sink branch when tracing is off. */
inline void
begin(Kind kind, std::uint64_t id, std::uint16_t track = 0,
      std::uint32_t arg = 0)
{
    if (TraceBuffer *s = sink())
        s->record(kind, Phase::Begin, id, arg, track);
}

inline void
end(Kind kind, std::uint64_t id, std::uint16_t track = 0,
    std::uint32_t arg = 0)
{
    if (TraceBuffer *s = sink())
        s->record(kind, Phase::End, id, arg, track);
}

inline void
instant(Kind kind, std::uint64_t id, std::uint16_t track = 0,
        std::uint32_t arg = 0)
{
    if (TraceBuffer *s = sink())
        s->record(kind, Phase::Instant, id, arg, track);
}

inline void
counter(Kind kind, std::uint64_t id, std::uint32_t value,
        std::uint16_t track = 0)
{
    if (TraceBuffer *s = sink())
        s->record(kind, Phase::Counter, id, value, track);
}
/** @} */

/**
 * Deterministic 64-bit id for a component name (FNV-1a). When a sink
 * is active the (id, name) pair is registered with it so exporters
 * can label the series; the hash itself never depends on the sink.
 */
std::uint64_t nameId(const std::string &name);

/**
 * Name-table id under which exporters look up a label for @p track
 * (registerName under this key to give a trace lane its component
 * name in chrome://tracing).
 */
constexpr std::uint64_t
trackNameKey(std::uint16_t track)
{
    return 0x8000000000000000ull | track;
}

} // namespace trace
} // namespace kmu

#endif // KMU_TRACE_TRACE_HH
