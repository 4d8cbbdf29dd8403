#include "fault/fault_plan.hh"

#include "common/logging.hh"

namespace kmu
{
namespace fault
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::DoorbellLoss:        return "doorbell_loss";
      case FaultSite::DescFetchTruncation: return "desc_fetch_truncation";
      case FaultSite::ReplayEvictionStorm: return "replay_eviction_storm";
      case FaultSite::OnDemandStall:       return "on_demand_stall";
      case FaultSite::CompletionLoss:      return "completion_loss";
      case FaultSite::CompletionReorder:   return "completion_reorder";
      case FaultSite::ResponseBitFlip:     return "response_bitflip";
      case FaultSite::MappedReadError:     return "mapped_read_error";
      case FaultSite::DeviceHang:          return "device_hang";
      case FaultSite::Brownout:            return "brownout";
      case FaultSite::NumSites:            break;
    }
    panic("bad fault site %u", unsigned(site));
}

namespace
{

/**
 * Stream id of each site: its index in the enum when the enum also
 * listed nine timing-model sites (four PCIe, two uncore, two LFB and
 * a link outage). Seeding from these ids rather than from the
 * current index keeps every seeded fault schedule, and so every
 * kmu_faultstorm and abl_outage CSV, bit-identical across that
 * deletion.
 */
constexpr std::array<std::uint64_t, numFaultSites> streamIds = {
    8,  // DoorbellLoss
    9,  // DescFetchTruncation
    10, // ReplayEvictionStorm
    11, // OnDemandStall
    12, // CompletionLoss
    13, // CompletionReorder
    14, // ResponseBitFlip
    15, // MappedReadError
    17, // DeviceHang
    18, // Brownout
};

} // anonymous namespace

FaultPlan::FaultPlan(std::uint64_t seed) : planSeed(seed)
{
    // Decorrelate the site streams: each gets its own generator
    // seeded from the plan seed and the site's stream id, so one
    // site's draw count never influences another site's schedule.
    for (std::size_t i = 0; i < numFaultSites; ++i)
        sites[i].rng.seed(mix64(seed ^ mix64(0xfa17u + streamIds[i])));
}

FaultPlan::SiteState &
FaultPlan::state(FaultSite site)
{
    const auto index = static_cast<std::size_t>(site);
    kmuAssert(index < numFaultSites, "bad fault site %zu", index);
    return sites[index];
}

const FaultPlan::SiteState &
FaultPlan::state(FaultSite site) const
{
    const auto index = static_cast<std::size_t>(site);
    kmuAssert(index < numFaultSites, "bad fault site %zu", index);
    return sites[index];
}

void
FaultPlan::set(FaultSite site, FaultSpec spec)
{
    kmuAssert(spec.rate >= 0.0 && spec.rate <= 1.0,
              "fault rate %f out of [0,1]", spec.rate);
    kmuAssert(spec.burstPeriod == 0 ||
                  spec.burstLen <= spec.burstPeriod,
              "burst length %llu exceeds period %llu",
              (unsigned long long)spec.burstLen,
              (unsigned long long)spec.burstPeriod);
    state(site).spec = spec;
}

const FaultSpec &
FaultPlan::spec(FaultSite site) const
{
    return state(site).spec;
}

FaultPlan
FaultPlan::composite(std::uint64_t seed, double rate)
{
    FaultPlan plan(seed);
    if (rate <= 0.0)
        return plan;

    for (std::size_t i = 0; i < numFaultSites; ++i)
        plan.set(static_cast<FaultSite>(i), FaultSpec{rate, 0, 0, 0});

    // The mapped-read and device-stall sites run bursty: windows of
    // concentrated pressure (amplified rate) followed by quiet
    // stretches. Sustained pressure is what pushes the retry-rate
    // EWMA over the governor's enter threshold; the quiet stretch is
    // what lets it recover — both within one campaign step.
    const double burst_rate = rate * 40.0 > 0.9 ? 0.9 : rate * 40.0;
    plan.set(FaultSite::MappedReadError,
             FaultSpec{burst_rate, 0, 2048, 512});
    plan.set(FaultSite::OnDemandStall,
             FaultSpec{burst_rate, 0, 2048, 512});
    return plan;
}

FaultPlan
FaultPlan::outage(std::uint64_t seed, std::uint64_t shardMask,
                  std::uint64_t hangWindow, std::uint64_t period,
                  std::uint64_t brownoutFactor)
{
    FaultPlan plan(seed);
    kmuAssert(hangWindow > 0, "outage needs a positive hang window");
    kmuAssert(period > 0, "outage needs a positive period");
    // One guaranteed hang at the top of every period-encounter
    // window. While a component is inside a hang window it stops
    // encountering the site, so consecutive windows never merge.
    plan.set(FaultSite::DeviceHang,
             FaultSpec{1.0, hangWindow, period, 1, shardMask});
    if (brownoutFactor > 1) {
        // Brownout rides alongside the hangs: every serviced request
        // of the sick shards runs brownoutFactor× slow.
        plan.set(FaultSite::Brownout,
                 FaultSpec{1.0, brownoutFactor, 0, 0, shardMask});
    }
    return plan;
}

bool
FaultPlan::shouldInject(FaultSite site, std::uint32_t shard)
{
    SiteState &s = state(site);
    if ((s.spec.shardMask >> (shard & 63u) & 1u) == 0) {
        // Shard excluded: count the encounter (the per-shard window
        // position still tracks its progress) but leave the RNG
        // stream untouched so the enabled shards' schedules are
        // independent of how often the masked ones run.
        s.shardEncounters[shard & 63u]++;
        return false;
    }
    const std::uint64_t encounter = s.shardEncounters[shard & 63u]++;
    if (s.spec.rate <= 0.0)
        return false;
    if (s.spec.burstPeriod != 0 &&
        (encounter % s.spec.burstPeriod) >= s.spec.burstLen)
        return false;
    if (!s.rng.nextBool(s.spec.rate))
        return false;
    s.injectedCount++;
    return true;
}

std::uint64_t
FaultPlan::drawBounded(FaultSite site, std::uint64_t bound)
{
    kmuAssert(bound > 0, "drawBounded needs a positive bound");
    return 1 + state(site).rng.nextBounded(bound);
}

std::uint64_t
FaultPlan::magnitudeOr(FaultSite site, std::uint64_t fallback) const
{
    const std::uint64_t m = state(site).spec.magnitude;
    return m != 0 ? m : fallback;
}

std::uint64_t
FaultPlan::encounters(FaultSite site) const
{
    std::uint64_t total = 0;
    for (const std::uint64_t n : state(site).shardEncounters)
        total += n;
    return total;
}

std::uint64_t
FaultPlan::injected(FaultSite site) const
{
    return state(site).injectedCount;
}

std::uint64_t
FaultPlan::totalInjected() const
{
    std::uint64_t total = 0;
    for (const SiteState &s : sites)
        total += s.injectedCount;
    return total;
}

std::uint64_t
magnitude(FaultSite site, std::uint64_t fallback)
{
    FaultPlan *p = plan();
    return p != nullptr ? p->magnitudeOr(site, fallback) : fallback;
}

std::uint64_t
draw(FaultSite site, std::uint64_t bound)
{
    FaultPlan *p = plan();
    return p != nullptr ? p->drawBounded(site, bound) : 1;
}

} // namespace fault
} // namespace kmu
