/**
 * @file
 * Deterministic fault-injection plans.
 *
 * The paper's protocol (Section IV) is defined by the corner cases it
 * must absorb — skipped, reordered, and spurious accesses — yet a
 * reproduction that only ever runs the happy path proves nothing
 * about them. A FaultPlan provokes those corner cases *on purpose and
 * reproducibly*: every injection site draws from its own xoshiro
 * stream seeded from (plan seed, site id), never from wall clock, so
 * the same seed and plan produce the same fault schedule bit-for-bit
 * — which is what lets tools/kmu_faultstorm emit byte-identical CSVs
 * and lets a test replay the exact campaign that broke something.
 *
 * Per-site streams also isolate sites from each other: adding a draw
 * at one site cannot perturb the schedule of any other site, and in
 * the real-time runtime (host thread + device thread) each site is
 * only ever exercised from one thread, so per-site state needs no
 * locking.
 *
 * Injection is opt-in and zero-cost when off: components consult the
 * process-wide plan through fault::fire(), which is a null-pointer
 * check when no plan is installed. With no plan the runtime behaves
 * bit-identically to a build without this subsystem; the timing
 * model, and so every figure CSV, never consults it.
 */

#ifndef KMU_FAULT_FAULT_PLAN_HH
#define KMU_FAULT_FAULT_PLAN_HH

#include <array>
#include <cstdint>

#include "common/random.hh"

namespace kmu
{
namespace fault
{

/**
 * Every place a fault can be provoked. All of them sit in the real
 * runtime: the emulated device thread, the software-queue completion
 * path, the memory-mapped read path of the access engines, and the
 * whole-shard domain faults. The timing model has no fault sites;
 * its figures are fault-free queueing results.
 */
enum class FaultSite : std::uint32_t
{
    // --- device emulator ---
    DoorbellLoss,       //!< doorbell MMIO write never lands
    DescFetchTruncation,//!< DMA burst truncated mid-burst-of-8
    ReplayEvictionStorm,//!< replay window evicts a run of entries
    OnDemandStall,      //!< on-demand module (slow DRAM) stalls

    // --- software-queue completion path ---
    CompletionLoss,     //!< completion record never posted
    CompletionReorder,  //!< completion delivered out of order
    ResponseBitFlip,    //!< response payload corrupted in flight

    // --- memory-mapped (on-demand / prefetch) read path ---
    MappedReadError,    //!< detected MMIO read error: must re-issue

    // --- domain-scale shapes (whole-shard failure domains; scope
    //     with FaultSpec::shardMask) ---
    DeviceHang,         //!< device stops servicing for a window
    Brownout,           //!< service latency multiplied for a window

    NumSites
};

constexpr std::size_t numFaultSites =
    static_cast<std::size_t>(FaultSite::NumSites);

/** Stable short name (CSV columns, logs). */
const char *faultSiteName(FaultSite site);

/**
 * Per-site fault schedule.
 *
 * `rate` is the Bernoulli probability of injecting at each encounter
 * of the site. When `burstPeriod` is nonzero, injection is eligible
 * only during the first `burstLen` encounters of every
 * `burstPeriod`-encounter window — modelling the sustained fault
 * pressure (then relief) that the degradation governor must detect
 * and recover from, while staying a pure function of the encounter
 * counter.
 *
 * `magnitude` parameterizes sites that need a size: extra service
 * steps for OnDemandStall, entries evicted for ReplayEvictionStorm,
 * the window length for DeviceHang, the latency factor for
 * Brownout. Zero selects a site-specific default.
 *
 * `shardMask` scopes the site to a subset of device shards in a
 * sharded topology (src/topo): bit s enables injection at the
 * instance of this site on shard s. Sites that are not per-shard
 * (all but DeviceHang and Brownout) encounter as shard 0. The
 * all-ones default keeps single-device plans bit-identical to the
 * pre-sharding behaviour. A masked-out encounter still advances the
 * site's encounter counter (so burst windows stay aligned with wall
 * progress) but draws nothing from the site's RNG stream.
 */
struct FaultSpec
{
    double rate = 0.0;
    std::uint64_t magnitude = 0;
    std::uint64_t burstPeriod = 0;
    std::uint64_t burstLen = 0;
    std::uint64_t shardMask = ~std::uint64_t(0);
};

class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed);

    std::uint64_t seed() const { return planSeed; }

    /** Install one site's schedule (overwrites any previous spec). */
    void set(FaultSite site, FaultSpec spec);

    const FaultSpec &spec(FaultSite site) const;

    /**
     * Composite schedule: the same base rate at every injection
     * site, with a bursty MappedReadError/OnDemandStall phase so a
     * campaign exercises the degradation governor's enter *and* exit
     * transitions. This is the schedule kmu_faultstorm escalates.
     */
    static FaultPlan composite(std::uint64_t seed, double rate);

    /**
     * Domain-outage schedule: the shards selected by @p shardMask
     * suffer periodic device hangs (window of @p hangWindow service
     * steps, once per @p period encounters) and optionally a brownout
     * (service latency ×@p brownoutFactor) while the rest of the
     * system runs fault-free. This is the schedule abl_outage and
     * kmu_faultstorm's outage mode inject — the shape the health
     * controller exists to contain.
     */
    static FaultPlan outage(std::uint64_t seed, std::uint64_t shardMask,
                            std::uint64_t hangWindow,
                            std::uint64_t period,
                            std::uint64_t brownoutFactor = 0);

    /**
     * One encounter of @p site on device shard @p shard: advances
     * the site's encounter counter and draws whether to inject.
     * Deterministic given the plan seed and the site's encounter
     * history. Shards excluded by the spec's shardMask never inject
     * and never draw.
     */
    bool shouldInject(FaultSite site, std::uint32_t shard = 0);

    /**
     * Deterministic magnitude draw in [1, bound] from the site's
     * stream (for sites that need a parameter after firing).
     */
    std::uint64_t drawBounded(FaultSite site, std::uint64_t bound);

    /** Site magnitude, or @p fallback when the spec leaves it 0. */
    std::uint64_t magnitudeOr(FaultSite site,
                              std::uint64_t fallback) const;

    /** @{ Per-site accounting (for CSVs and tests). */
    std::uint64_t encounters(FaultSite site) const;
    std::uint64_t injected(FaultSite site) const;
    /** @} */

    /** Total injections across all sites. */
    std::uint64_t totalInjected() const;

  private:
    struct SiteState
    {
        FaultSpec spec;
        Rng rng;
        /**
         * Encounter counters are per shard: the burst window gate
         * (encounter % burstPeriod) must track each failure domain's
         * own progress. A global counter would stride by the number
         * of shards under round-robin service and alias with
         * burstPeriod — a shard could sit permanently outside its
         * burst window no matter how long the plan runs.
         */
        std::array<std::uint64_t, 64> shardEncounters{};
        std::uint64_t injectedCount = 0;
    };

    SiteState &state(FaultSite site);
    const SiteState &state(FaultSite site) const;

    std::uint64_t planSeed;
    std::array<SiteState, numFaultSites> sites;
};

namespace detail
{
inline FaultPlan *activePlan = nullptr;
} // namespace detail

/**
 * Install @p plan as the process-wide active plan (nullptr to
 * disable). The caller keeps ownership and must keep the plan alive
 * while installed. Not thread-safe: install before starting the
 * device thread / fiber scheduler, uninstall after they stop.
 */
inline void
install(FaultPlan *plan_to_install)
{
    detail::activePlan = plan_to_install;
}

/** The active plan, or nullptr when injection is off: an inline flag
 *  read, since every fault site on the hot path consults it. */
inline FaultPlan *
plan()
{
    return detail::activePlan;
}

/** RAII installer for tests and tools. */
class ScopedPlan
{
  public:
    explicit ScopedPlan(FaultPlan &p) { install(&p); }
    ~ScopedPlan() { install(nullptr); }

    ScopedPlan(const ScopedPlan &) = delete;
    ScopedPlan &operator=(const ScopedPlan &) = delete;
};

/** Fast-path encounter: false (one branch) when no plan is active.
 *  @p shard addresses the site instance in a sharded topology;
 *  components that predate sharding encounter their sites as
 *  shard 0. */
inline bool
fire(FaultSite site, std::uint32_t shard = 0)
{
    FaultPlan *p = plan();
    return p != nullptr && p->shouldInject(site, shard);
}

/** Magnitude of @p site under the active plan, else @p fallback.
 *  Call only after fire() returned true (a plan is active). */
std::uint64_t magnitude(FaultSite site, std::uint64_t fallback);

/** Bounded draw from the active plan's site stream (1 when no plan
 *  is active, so callers need no separate guard). */
std::uint64_t draw(FaultSite site, std::uint64_t bound);

} // namespace fault
} // namespace kmu

#endif // KMU_FAULT_FAULT_PLAN_HH
