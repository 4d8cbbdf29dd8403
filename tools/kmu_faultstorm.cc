/**
 * @file
 * kmu_faultstorm — fault-injection campaign driver for the runtime.
 *
 * Escalates a composite fault schedule across the three access
 * mechanisms and reports, per (mechanism, fault rate) cell, how much
 * goodput survived and what the recovery machinery had to do:
 *
 *   kmu_faultstorm                         # default campaign
 *   kmu_faultstorm rates=0,0.01 ops=2000   # quick smoke
 *   kmu_faultstorm seed=7 require_recovery=1
 *
 * Every workload is self-validating: reads are checked against the
 * image's known mix64 pattern and writes are read back, so a fault
 * that the recovery path fails to absorb shows up as a verify error,
 * not just a slow run. A read the engine fails back instead (a
 * deadline error, or a read still bad after its whole retry budget)
 * is counted in the deadline_failed column, so every read is either
 * verified or counted. The campaign is deterministic — fixed
 * seed and rates produce a byte-identical CSV (the software-queue
 * mechanism runs the emulated device in manual-pump mode for this).
 *
 * Exit status is nonzero when any verify error or invariant
 * violation occurred, or when require_recovery=1 and a nonzero-rate
 * cell rode through without the recovery machinery firing (which
 * would mean the campaign is not actually testing anything).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "access/runtime.hh"
#include "check/invariant.hh"
#include "common/random.hh"
#include "fault/fault_plan.hh"
#include "tool_args.hh"

using namespace kmu;
using fault::FaultPlan;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: kmu_faultstorm [key=value ...]\n"
        "  seed=N              campaign seed            (1)\n"
        "  rates=F,F,...       fault rates to sweep     (0,0.001,0.01)\n"
        "  ops=N               read ops per fiber       (4000)\n"
        "  fibers=N            worker fibers            (4)\n"
        "  mechanisms=a,b,...  ondemand,prefetch,swqueue (all)\n"
        "  shards=N            device shards, swqueue   (1)\n"
        "  shard_mask=M        shards the faults hit    (1)\n"
        "  outage=0|1          domain-outage schedule instead of the\n"
        "                      composite one (nonzero rates arm it) (0)\n"
        "  hang_window=N       outage hang, service steps (64)\n"
        "  outage_period=N     encounters between hangs (2048)\n"
        "  brownout=N          outage service-latency factor (0=off)\n"
        "  health=MODE         off,governor,full (swqueue) (off)\n"
        "  require_recovery=0|1  fail if faults never bit (0)\n");
    std::exit(1);
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value)
{
    toolargs::reportBadValue("kmu_faultstorm", key, value);
    usage();
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** The device image every mechanism serves: word i holds mix64(i). */
std::vector<std::uint8_t>
patternImage(std::size_t bytes)
{
    std::vector<std::uint8_t> image(bytes);
    for (std::size_t off = 0; off < bytes; off += 8) {
        const std::uint64_t word = mix64(off);
        std::memcpy(image.data() + off, &word, 8);
    }
    return image;
}

struct CellResult
{
    std::uint64_t verifyErrors = 0;
    /** Reads failed back to the workload: past a deadline, or out
     *  of retries. */
    std::uint64_t deadlineFailed = 0;
    std::uint64_t accesses = 0;
    std::uint64_t writes = 0;
    AccessEngine::RecoveryCounters rec;
    std::uint64_t degradations = 0;
    std::uint64_t recoveries = 0;
    health::RecoveryController::Counters health;
    std::uint64_t injected = 0;
    std::uint64_t violations = 0;
};

/**
 * One campaign cell: build a runtime, run the self-validating
 * workload under the given plan (nullptr = faults off), report.
 *
 * Layout: the lower half of the image is a read-only region whose
 * mix64 pattern reads are verified against; the upper half is write
 * scratch, sliced per fiber, exercised write-then-read-back.
 */
CellResult
runCell(Mechanism mech, FaultPlan *plan, std::uint64_t seed,
        std::uint64_t ops, std::uint64_t fibers,
        std::uint32_t shards, health::Mode health_mode)
{
    constexpr std::size_t imageBytes = 1u << 20;
    constexpr std::size_t readBytes = imageBytes / 2;

    Runtime::Config cfg;
    cfg.mechanism = mech;
    cfg.deterministicDevice = true; // single-threaded, reproducible
    if (mech == Mechanism::SwQueue) {
        // Shards and the health control plane are software-queue
        // features; the memory-mapped mechanisms run the paper's
        // single-device platform regardless of the knobs.
        cfg.shards = shards;
        cfg.health.mode = health_mode;
    }
    Runtime rt(patternImage(imageBytes), cfg);

    const std::uint64_t violationsBefore = check::violationCount();
    CellResult out;

    for (std::uint64_t f = 0; f < fibers; ++f) {
        rt.spawnWorker([&, f](AccessEngine &eng) {
            Rng rng(mix64(seed ^ (0xf1be0000 + f)));
            const Addr scratchBase =
                readBytes + f * ((imageBytes - readBytes) / fibers);
            std::uint8_t line[cacheLineSize];
            std::uint8_t back[cacheLineSize];

            for (std::uint64_t op = 0; op < ops; ++op) {
                if (op % 8 == 7) {
                    // Write path: stamp a line with a per-op pattern,
                    // read it back through the same engine.
                    const Addr addr = lineAlign(
                        scratchBase + rng.nextBounded(
                            (imageBytes - readBytes) / fibers -
                            cacheLineSize));
                    for (std::uint32_t b = 0; b < cacheLineSize; ++b)
                        line[b] = std::uint8_t(mix64(op ^ addr) >>
                                               ((b % 8) * 8));
                    eng.writeLine(addr, line);
                    if (eng.tryReadLines(&addr, 1, back) !=
                        AccessStatus::Ok)
                        out.deadlineFailed++;
                    else if (std::memcmp(line, back, cacheLineSize) != 0)
                        out.verifyErrors++;
                    continue;
                }
                // Read path: any aligned word in the pattern region.
                const Addr addr =
                    rng.nextBounded(readBytes / 8) * 8;
                std::uint64_t got = 0;
                if (eng.tryRead64(addr, got) == AccessStatus::Ok) {
                    if (got != mix64(addr))
                        out.verifyErrors++;
                } else {
                    out.deadlineFailed++;
                }
            }
        });
    }

    fault::install(plan);
    rt.run();
    fault::install(nullptr);

    out.accesses = rt.engine().accesses();
    out.writes = rt.engine().writes();
    out.rec = rt.engine().recovery();
    out.degradations = rt.degradation().degradations();
    out.recoveries = rt.degradation().recoveries();
    if (const health::RecoveryController *hc = rt.healthController())
        out.health = hc->counters();
    out.injected = plan ? plan->totalInjected() : 0;
    out.violations = check::violationCount() - violationsBefore;
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::uint64_t ops = 4000;
    std::uint64_t fibers = 4;
    std::uint64_t shards = 1;
    std::uint64_t shard_mask = 1;
    bool outage = false;
    std::uint64_t hang_window = 64;
    std::uint64_t outage_period = 2048;
    std::uint64_t brownout = 0;
    health::Mode health_mode = health::Mode::Off;
    bool require_recovery = false;
    std::vector<double> rates{0.0, 0.001, 0.01};
    std::vector<Mechanism> mechanisms{
        Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SwQueue};

    for (int i = 1; i < argc; ++i) {
        std::string key;
        std::string value;
        if (!toolargs::parseKv(argv[i], key, value)) {
            toolargs::reportBadArg("kmu_faultstorm", argv[i]);
            usage();
        }
        if (key == "seed") {
            if (!toolargs::parseU64(value, seed))
                badValue(key, value);
        } else if (key == "ops") {
            if (!toolargs::parseU64(value, ops) || ops == 0)
                badValue(key, value);
        } else if (key == "fibers") {
            if (!toolargs::parseU64(value, fibers) || fibers == 0)
                badValue(key, value);
        } else if (key == "shards") {
            if (!toolargs::parseU64(value, shards) || shards == 0 ||
                shards > topo::maxShards)
                badValue(key, value);
        } else if (key == "shard_mask") {
            if (!toolargs::parseU64(value, shard_mask) ||
                shard_mask == 0)
                badValue(key, value);
        } else if (key == "outage") {
            if (!toolargs::parseFlag(value, outage))
                badValue(key, value);
        } else if (key == "hang_window") {
            if (!toolargs::parseU64(value, hang_window) ||
                hang_window == 0)
                badValue(key, value);
        } else if (key == "outage_period") {
            if (!toolargs::parseU64(value, outage_period) ||
                outage_period == 0)
                badValue(key, value);
        } else if (key == "brownout") {
            if (!toolargs::parseU64(value, brownout))
                badValue(key, value);
        } else if (key == "health") {
            if (!health::parseMode(value.c_str(), health_mode))
                badValue(key, value);
        } else if (key == "require_recovery") {
            if (!toolargs::parseFlag(value, require_recovery))
                badValue(key, value);
        } else if (key == "rates") {
            rates.clear();
            for (const std::string &r : splitList(value)) {
                double rate = 0.0;
                if (!toolargs::parseF64(r, rate) || rate < 0.0 ||
                    rate > 1.0)
                    badValue(key, value);
                rates.push_back(rate);
            }
            if (rates.empty())
                badValue(key, value);
        } else if (key == "mechanisms") {
            mechanisms.clear();
            for (const std::string &m : splitList(value)) {
                if (m == "ondemand")
                    mechanisms.push_back(Mechanism::OnDemand);
                else if (m == "prefetch")
                    mechanisms.push_back(Mechanism::Prefetch);
                else if (m == "swqueue")
                    mechanisms.push_back(Mechanism::SwQueue);
                else
                    badValue(key, value);
            }
            if (mechanisms.empty())
                badValue(key, value);
        } else {
            toolargs::reportUnknownKey("kmu_faultstorm", key);
            usage();
        }
    }

    std::printf("mechanism,shards,shard_mask,health,fault_rate,ops,"
                "verify_errors,deadline_failed,accesses,"
                "writes,retries,timeouts,crc_failures,"
                "stale_completions,recovery_doorbells,"
                "degraded_accesses,degradations,recoveries,"
                "health_degradations,health_quarantines,"
                "health_recoveries,health_failovers,deadline_errors,"
                "injected_total,goodput_pct,violations\n");

    bool failed = false;
    std::uint64_t campaignDegradations = 0;
    std::uint64_t campaignRecoveries = 0;
    bool anyNonzeroRate = false;
    std::uint64_t step = 0;

    for (double rate : rates) {
        for (Mechanism mech : mechanisms) {
            // A fresh plan per cell, seeded from the campaign seed
            // and the cell index, keeps cells independent: editing
            // the rate list cannot perturb an earlier cell. In
            // outage mode any nonzero rate arms the domain-outage
            // schedule (whole-shard hangs on the masked shards)
            // instead of scaling the composite one.
            FaultPlan plan =
                outage ? FaultPlan::outage(
                             mix64(seed ^ (0x57a6e000 + step)),
                             shard_mask, hang_window, outage_period,
                             brownout)
                       : FaultPlan::composite(
                             mix64(seed ^ (0x57a6e000 + step)), rate);
            ++step;
            FaultPlan *active = rate > 0.0 ? &plan : nullptr;

            CellResult r = runCell(mech, active, seed, ops, fibers,
                                   std::uint32_t(shards),
                                   health_mode);

            const std::uint64_t attempts = r.accesses + r.rec.retries;
            const double goodput = attempts
                ? 100.0 * double(r.accesses) / double(attempts)
                : 100.0;

            std::printf("%s,%llu,%#llx,%s,%.17g,%llu,%llu,%llu,%llu,"
                        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.17g,"
                        "%llu\n",
                        mechanismName(mech),
                        (unsigned long long)shards,
                        (unsigned long long)shard_mask,
                        health::modeName(health_mode), rate,
                        (unsigned long long)(ops * fibers),
                        (unsigned long long)r.verifyErrors,
                        (unsigned long long)r.deadlineFailed,
                        (unsigned long long)r.accesses,
                        (unsigned long long)r.writes,
                        (unsigned long long)r.rec.retries,
                        (unsigned long long)r.rec.timeouts,
                        (unsigned long long)r.rec.crcFailures,
                        (unsigned long long)r.rec.staleCompletions,
                        (unsigned long long)r.rec.recoveryDoorbells,
                        (unsigned long long)r.rec.degradedAccesses,
                        (unsigned long long)r.degradations,
                        (unsigned long long)r.recoveries,
                        (unsigned long long)r.health.degradations,
                        (unsigned long long)r.health.quarantines,
                        (unsigned long long)r.health.recoveries,
                        (unsigned long long)r.health.failovers,
                        (unsigned long long)r.rec.deadlineErrors,
                        (unsigned long long)r.injected, goodput,
                        (unsigned long long)r.violations);

            if (r.verifyErrors > 0 || r.violations > 0)
                failed = true;
            if (rate > 0.0) {
                anyNonzeroRate = true;
                // In outage mode the machinery under test is the
                // shard-health controller, not the prefetch
                // degradation governor: credit its quarantine /
                // recovery cycle instead.
                campaignDegradations +=
                    outage ? r.health.quarantines : r.degradations;
                campaignRecoveries +=
                    outage ? r.health.recoveries : r.recoveries;
                if (require_recovery && r.injected > 0 &&
                    r.rec.retries == 0 &&
                    r.rec.degradedAccesses == 0) {
                    std::fprintf(stderr,
                                 "faultstorm: %s at rate %g injected "
                                 "%llu faults but recovered nothing\n",
                                 mechanismName(mech), rate,
                                 (unsigned long long)r.injected);
                    failed = true;
                }
            }
        }
    }

    if (require_recovery && anyNonzeroRate &&
        (campaignDegradations == 0 || campaignRecoveries == 0)) {
        std::fprintf(stderr,
                     "faultstorm: %s never cycled "
                     "(degradations=%llu recoveries=%llu)\n",
                     outage ? "health controller"
                            : "degradation governor",
                     (unsigned long long)campaignDegradations,
                     (unsigned long long)campaignRecoveries);
        failed = true;
    }
    return failed ? 1 : 0;
}
