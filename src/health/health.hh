/**
 * @file
 * kmu::health — shard failure domains and the epoch-based recovery
 * control plane.
 *
 * The fault layer (src/fault) provokes domain-scale misbehaviour —
 * a hung device, a brownout — and the sharded topology (src/topo)
 * gives the system N independent failure domains. This
 * subsystem closes the loop: a HealthMonitor folds each shard's
 * per-epoch signals (completions, watchdog re-issues, ring rejects,
 * queue depth, oldest in-flight age) into a retry-pressure EWMA and a
 * stuck detector, and a RecoveryController runs a per-shard state
 * machine on top:
 *
 *   HEALTHY ──ewma/stuck──▶ DEGRADED ──ewma/stuck──▶ QUARANTINED
 *      ▲                        │                        │
 *      └──── hysteresisEpochs ──┘◀──── probe successes ──┘
 *
 * DEGRADED shards keep their traffic: the state is the step before
 * quarantine (the prefetch→on-demand flip under retry pressure is
 * fault::DegradationGovernor, not this state machine). QUARANTINED
 * shards stop receiving new requests — the router fails
 * them over to sibling shards under the interleave remap, except for
 * a deterministic 1-in-probePeriod canary probe that tests whether
 * the shard came back. Probe completions accumulate toward
 * probeSuccesses; reaching the threshold drops the shard back to
 * DEGRADED, and hysteresisEpochs consecutive clean epochs complete
 * the recovery to HEALTHY (any dirty epoch resets the run, which is
 * the flap suppression).
 *
 * Everything here is pure, deterministic logic: no clocks, no RNG,
 * no threads. The embedding layer, SwQueueEngine's poll-tick loop,
 * decides when an epoch elapses and what the signals are; with the
 * controller disabled (Mode::Off) it constructs none, so health-off
 * runs are byte-identical to a build without this subsystem.
 */

#ifndef KMU_HEALTH_HEALTH_HH
#define KMU_HEALTH_HEALTH_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.hh"

namespace kmu
{
namespace health
{

/** How much of the control plane is armed. */
enum class Mode : std::uint32_t
{
    Off,          //!< no controller at all (byte-identical baseline)
    GovernorOnly, //!< degrade effects only; never quarantines
    Full          //!< degrade + quarantine + failover + probes
};

/** Stable short name (CSV columns, CLI). */
const char *modeName(Mode mode);

/** Parse "off" / "governor" / "full"; returns false on junk. */
bool parseMode(const char *text, Mode &out);

/** Per-shard controller state. */
enum class ShardState : std::uint32_t
{
    Healthy,
    Degraded,
    Quarantined
};

/** Stable short name (trace args, logs, CSVs). */
const char *shardStateName(ShardState state);

/**
 * Control-plane parameters. Epoch timing is owned by the embedding
 * layer (poll ticks in the runtime, sim ticks in the timing model);
 * everything here counts epochs, requests, or fractions.
 */
struct Config
{
    Mode mode = Mode::Off;

    /** Epoch length in the embedder's watchdog clock (poll ticks in
     *  the runtime; the sim converts its epoch event period). */
    std::uint64_t epochPolls = 256;

    /** Per-epoch EWMA smoothing factor over the dirty fraction. */
    double alpha = 0.30;

    /** HEALTHY→DEGRADED when the EWMA exceeds this. */
    double enterDegraded = 0.25;

    /** DEGRADED→HEALTHY requires the EWMA below this (plus the
     *  clean-epoch run below). */
    double exitDegraded = 0.05;

    /** DEGRADED→QUARANTINED when the EWMA exceeds this (Full mode). */
    double enterQuarantine = 0.70;

    /** Consecutive epochs of zero completions with work queued that
     *  count as "stuck" (forces the next-worse state). */
    std::uint32_t stuckEpochs = 2;

    /** Consecutive clean epochs required to leave DEGRADED. */
    std::uint32_t hysteresisEpochs = 3;

    /** While QUARANTINED, every probePeriod-th request routed at the
     *  shard is sent there as a canary probe instead of failing over. */
    std::uint32_t probePeriod = 64;

    /** Completions a quarantined shard must deliver before it is
     *  allowed back to DEGRADED. */
    std::uint32_t probeSuccesses = 4;

    /** Per-request deadline in the embedder's watchdog clock: past
     *  it, a stuck request is failed with DeadlineExceeded instead of
     *  retried forever (Full mode only). */
    std::uint64_t requestDeadlinePolls = 8192;
};

/** One shard's signals over one epoch (deltas, except the gauges). */
struct ShardSignals
{
    std::uint64_t completions = 0; //!< ops completed this epoch
    std::uint64_t retries = 0;     //!< watchdog re-issues this epoch
    std::uint64_t rejects = 0;     //!< ring-full submit rejects
    std::uint64_t queueDepth = 0;  //!< in-flight ops at epoch end
    std::uint64_t oldestAge = 0;   //!< age of oldest in-flight op
};

/**
 * Per-shard signal folding: dirty-fraction EWMA plus the stuck and
 * clean-run counters the state machine consumes. Kept separate from
 * RecoveryController so the boundary tests can drive it directly.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(const Config &config) : cfg(config) {}

    /**
     * Fold one epoch's signals. The dirty fraction of an epoch is
     * retries/completions (clamped to 1); an epoch with queued work
     * but zero completions is maximally dirty (the shard is stuck);
     * an idle epoch (nothing queued, nothing done) is clean.
     */
    void
    observe(const ShardSignals &sig)
    {
        double dirty;
        if (sig.completions == 0) {
            dirty = sig.queueDepth > 0 ? 1.0 : 0.0;
        } else {
            dirty = double(sig.retries) / double(sig.completions);
            if (dirty > 1.0)
                dirty = 1.0;
        }
        ewma_ += cfg.alpha * (dirty - ewma_);
        if (sig.completions == 0 && sig.queueDepth > 0)
            stuckRun_++;
        else
            stuckRun_ = 0;
        if (dirty == 0.0 && sig.rejects == 0)
            cleanRun_++;
        else
            cleanRun_ = 0;
    }

    double ewma() const { return ewma_; }

    /** Consecutive stuck epochs ending at the last observe(). */
    std::uint32_t stuckRun() const { return stuckRun_; }

    /** Consecutive clean epochs ending at the last observe(). */
    std::uint32_t cleanRun() const { return cleanRun_; }

    /** True when the shard warrants DEGRADED (or worse). */
    bool
    overEnter() const
    {
        return ewma_ > cfg.enterDegraded || stuckRun_ >= cfg.stuckEpochs;
    }

    /** True when the shard warrants QUARANTINED (Full mode). */
    bool
    overQuarantine() const
    {
        return ewma_ > cfg.enterQuarantine ||
               stuckRun_ >= cfg.stuckEpochs;
    }

    /** True when the hysteresis run clears a DEGRADED shard. */
    bool
    recovered() const
    {
        return ewma_ < cfg.exitDegraded &&
               cleanRun_ >= cfg.hysteresisEpochs;
    }

    /** Probes proved the shard serves again: restart from a clean
     *  slate so stale pressure cannot instantly re-quarantine it. */
    void
    resetAfterProbe()
    {
        ewma_ = 0.0;
        stuckRun_ = 0;
        cleanRun_ = 0;
    }

  private:
    Config cfg;
    double ewma_ = 0.0;
    std::uint32_t stuckRun_ = 0;
    std::uint32_t cleanRun_ = 0;
};

/**
 * The per-shard state machine plus the request router. Single-writer:
 * all mutating calls happen on the embedding layer's control thread
 * (the runtime host thread / the sim event loop); the packed state
 * word below is the only cross-thread surface.
 */
class RecoveryController
{
  public:
    /** Aggregate transition / routing counters (for RunResult and
     *  campaign CSVs). */
    struct Counters
    {
        std::uint64_t degradations = 0; //!< HEALTHY→DEGRADED
        std::uint64_t quarantines = 0;  //!< DEGRADED→QUARANTINED
        std::uint64_t recoveries = 0;   //!< DEGRADED→HEALTHY
        std::uint64_t probes = 0;       //!< canary requests routed
        std::uint64_t failovers = 0;    //!< requests re-routed away
    };

    RecoveryController(const Config &config, std::uint32_t shard_count);

    const Config &config() const { return cfg; }
    std::uint32_t shards() const { return std::uint32_t(mons.size()); }
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Fold shard @p shard's signals for the epoch being closed.
     * @return the state after any transition this sample caused.
     */
    ShardState sampleEpoch(std::uint32_t shard,
                           const ShardSignals &sig);

    /** Advance the epoch counter (call once per epoch, after all
     *  shards sampled). */
    void endEpoch() { epoch_++; }

    ShardState state(std::uint32_t shard) const;
    double ewma(std::uint32_t shard) const;
    bool degraded(std::uint32_t shard) const;
    bool quarantined(std::uint32_t shard) const;

    /** Bit s set when shard s accepts new requests (not
     *  quarantined). Never returns 0: with every shard quarantined,
     *  routing falls back to the natural owner anyway. */
    std::uint64_t routableMask() const;

    /**
     * Route one new request whose interleave-natural owner is
     * @p natural. Healthy/degraded owners keep their traffic; a
     * quarantined owner receives every probePeriod-th request as a
     * canary and fails the rest over to a sibling chosen by @p salt
     * (deterministic spread — use the line index). GovernorOnly mode
     * never re-routes.
     */
    std::uint32_t route(std::uint32_t natural, std::uint64_t salt);

    const Counters &counters() const { return stats; }

    /**
     * Lock-free observer snapshot: 2 state bits per shard, shard s
     * at bits (2s)..(2s+1). Written on the control thread at every
     * transition; readable from any thread (stats dumpers, the
     * device-side trace hooks) without synchronizing with the
     * controller.
     */
    std::uint64_t statesSnapshot() const
    {
        return statesWord.load(std::memory_order_acquire);
    }

  private:
    void publish();
    void transition(std::uint32_t shard, ShardState to);

    Config cfg;
    std::vector<HealthMonitor> mons;
    std::vector<ShardState> states;
    /** Completions observed on each shard since it was quarantined
     *  (probe successes). */
    std::vector<std::uint64_t> probeDone;
    /** Per-shard request counter driving the 1-in-N probe cadence. */
    std::vector<std::uint64_t> probeClock;
    Counters stats;
    std::uint64_t epoch_ = 0;
    std::atomic<std::uint64_t> statesWord
        KMU_ATOMIC_ROLE(control_writes, observers_read){0};
};

} // namespace health
} // namespace kmu

#endif // KMU_HEALTH_HEALTH_HH
