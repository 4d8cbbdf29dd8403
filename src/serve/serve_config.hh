/**
 * @file
 * Configuration of the open-loop serving mode (src/serve).
 *
 * Plain data only: the struct is embedded in SystemConfig and must
 * survive fork() into sweep workers, carry no pointers, and pull in
 * no heavyweight headers (core links serve, never the reverse).
 */

#ifndef KMU_SERVE_SERVE_CONFIG_HH
#define KMU_SERVE_SERVE_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace kmu
{
namespace serve
{

/** Shape of the arrival process. */
enum class ArrivalKind : std::uint8_t
{
    Off,     //!< serving disabled: the classic closed-loop replay
    Poisson, //!< memoryless arrivals at rate lambda
    Bursty   //!< ON/OFF modulated Poisson (duty-cycled bursts)
};

/**
 * Open-loop load generator knobs.
 *
 * With arrival == Off nothing in the system changes: SimSystem
 * installs no hooks and every existing figure stays byte-identical.
 * Otherwise a ServeDriver paces request admission: cores only start
 * an iteration when a request has arrived for it, and each request
 * is timestamped at arrival and at retirement so the recorded
 * latency includes queueing delay — the open-loop property that
 * closed-loop replay cannot measure.
 */
struct ServeConfig
{
    ArrivalKind arrival = ArrivalKind::Off;

    /** Mean offered load in requests per microsecond. */
    double lambdaPerUs = 1.0;

    /**
     * Zipf skew of key popularity (theta in [0, 1)); 0 draws keys
     * uniformly. YCSB's default is 0.99.
     */
    double zipfTheta = 0.0;

    /** Number of distinct keys in the keyspace. */
    std::uint64_t numKeys = 1u << 20;

    /** Cache lines fetched per request (the value size). */
    std::uint32_t valueLines = 1;

    /**
     * Emulated client population: arrivals pause while this many
     * requests are in flight (0 = unlimited, a pure open loop).
     * Finite clients make the generator "partly open": a saturated
     * system back-pressures the arrival clock instead of queueing
     * unboundedly.
     */
    std::uint32_t clients = 0;

    /** Per-request latency SLO in microseconds (goodput threshold). */
    double sloUs = 100.0;

    /** Seed of the arrival/popularity stream. */
    std::uint64_t seed = 1;

    /** @{ Bursty (ON/OFF) shape; ignored for Poisson. */
    /** Fraction of time the source is ON (0 < duty <= 1). */
    double duty = 0.5;
    /** Length of one ON+OFF period in microseconds. */
    double burstPeriodUs = 50.0;
    /** @} */

    bool enabled() const { return arrival != ArrivalKind::Off; }

    /**
     * True iff the numKeys x valueLines lines of the keyspace stay
     * below hostAddr bit 48, clear of the generation-tag and
     * shard-id bits 48..61. Compared by division: the 64-bit
     * product can wrap.
     */
    bool
    keyspaceFits() const
    {
        constexpr std::uint64_t maxLines =
            (std::uint64_t(1) << (48 - cacheLineShift)) - 1;
        return valueLines > 0 && numKeys <= maxLines / valueLines;
    }
};

} // namespace serve
} // namespace kmu

#endif // KMU_SERVE_SERVE_CONFIG_HH
