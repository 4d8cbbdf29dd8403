/**
 * @file
 * Extension: shard-outage blast radius under the health control
 * plane.
 *
 * Injects a deterministic 1-of-4-shard outage (periodic device hangs
 * on shard 0, src/fault's domain-scale schedule) into the real
 * runtime and measures goodput and tail latency under three control
 * configurations:
 *
 *  - static: no control plane — every read to the sick shard rides
 *    the watchdog's retry loop until the hang window passes.
 *  - governor-only: the health controller samples shard signals and
 *    counts degradations, but never reroutes and never deadlines.
 *  - full: sick shards are quarantined, requests fail over to a
 *    healthy sibling, and anything stuck past its deadline errors
 *    out instead of hanging.
 *
 * A fault-free row anchors the comparison. The claim under test
 * (gated by tests/abl_outage_check.cmake): the full controller keeps
 * goodput within ~70% of fault-free, bounds p999 instead of letting
 * the outage set it, and every request completes or errors — the run
 * terminates with ok + deadline_errors == issued.
 *
 * Latency is measured in engine poll ticks — the watchdog's logical
 * clock — which in manual-pump (deterministic-device) mode makes the
 * whole CSV byte-reproducible across runs and hosts.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "access/runtime.hh"
#include "access/sw_queue_engine.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "tools/tool_args.hh"
#include "common/table.hh"
#include "fault/fault_plan.hh"
#include "health/health.hh"
#include "sweep/sweep_runner.hh"

using namespace kmu;
using fault::FaultPlan;

namespace
{

constexpr std::size_t imageBytes = 1u << 20;
constexpr std::uint32_t shardCount = 4;
constexpr std::uint64_t outageMask = 0x1; // shard 0 is the victim

/** Outage shape: one long contiguous hang — shard 0 goes dark near
 *  the start of the run and stays dark for `hangWindow` service
 *  steps (~polls), then comes back for good. Static configurations
 *  stall the whole fiber pool for the window; the full controller
 *  quarantines within a couple of epochs, rides it out on the three
 *  siblings, and releases the shard via probes once it answers
 *  again. The period is set beyond any plausible run length so the
 *  site fires exactly once. */
constexpr std::uint64_t hangWindow = 16384;
constexpr std::uint64_t outagePeriod = 1u << 20;

/** The device image every cell serves: word i holds mix64(i). */
std::vector<std::uint8_t>
patternImage()
{
    std::vector<std::uint8_t> image(imageBytes);
    for (std::size_t off = 0; off < imageBytes; off += 8) {
        const std::uint64_t word = mix64(off);
        std::memcpy(image.data() + off, &word, 8);
    }
    return image;
}

struct CellResult
{
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t deadlineErrors = 0;
    std::uint64_t verifyErrors = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failovers = 0;
    health::RecoveryController::Counters health;
    std::uint64_t p50 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t pmax = 0;
    /** Poll ticks to complete the whole fixed workload: the
     *  deterministic makespan — ops/totalPolls is the cell's
     *  throughput, comparable against the fault-free row. */
    std::uint64_t totalPolls = 0;
};

std::uint64_t
percentile(const std::vector<std::uint64_t> &sorted, unsigned permille)
{
    if (sorted.empty())
        return 0;
    const std::size_t idx = (sorted.size() - 1) * permille / 1000;
    return sorted[idx];
}

CellResult
runCell(health::Mode mode, bool faults, std::uint64_t seed,
        std::uint64_t ops, std::uint64_t fibers)
{
    Runtime::Config cfg;
    cfg.mechanism = Mechanism::SwQueue;
    cfg.deterministicDevice = true; // single-threaded, reproducible
    cfg.shards = shardCount;
    cfg.health.mode = mode;
    // The static configuration must survive the outage on retries
    // alone: the default watchdog budget would abort the run, and
    // "retry until it works" is exactly the no-control-plane
    // strawman. The full controller never gets near this budget —
    // its per-request deadline fails the request first.
    cfg.retry.maxRetries = 1'000'000;

    Runtime rt(patternImage(), cfg);

    CellResult out;
    out.issued = ops * fibers;
    std::vector<std::vector<std::uint64_t>> lats(fibers);

    for (std::uint64_t f = 0; f < fibers; ++f) {
        lats[f].reserve(ops);
        rt.spawnWorker([&, f](AccessEngine &eng) {
            auto &swq = static_cast<SwQueueEngine &>(eng);
            Rng rng(mix64(seed ^ (0xab10'0000 + f)));
            for (std::uint64_t op = 0; op < ops; ++op) {
                const Addr addr =
                    rng.nextBounded(imageBytes / 8) * 8;
                const std::uint64_t t0 = swq.pollTicks();
                std::uint64_t got = 0;
                if (eng.tryRead64(addr, got) == AccessStatus::Ok) {
                    out.ok++;
                    if (got != mix64(addr))
                        out.verifyErrors++;
                } else {
                    out.deadlineErrors++;
                }
                lats[f].push_back(swq.pollTicks() - t0);
            }
        });
    }

    // Same seed for every faulted cell: the three configurations
    // face the identical injected schedule.
    FaultPlan plan = FaultPlan::outage(mix64(seed ^ 0x0a7a9eull),
                                      outageMask, hangWindow,
                                      outagePeriod);
    fault::install(faults ? &plan : nullptr);
    rt.run();
    fault::install(nullptr);

    out.totalPolls =
        static_cast<SwQueueEngine &>(rt.engine()).pollTicks();
    const auto rec = rt.engine().recovery();
    out.retries = rec.retries;
    out.timeouts = rec.timeouts;
    out.failovers = rec.failovers;
    if (const health::RecoveryController *hc = rt.healthController())
        out.health = hc->counters();

    std::vector<std::uint64_t> all;
    all.reserve(out.issued);
    for (const auto &v : lats)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    out.p50 = percentile(all, 500);
    out.p999 = percentile(all, 999);
    out.pmax = all.empty() ? 0 : all.back();
    return out;
}

double
goodputPct(const CellResult &r)
{
    const std::uint64_t attempts = r.ok + r.retries;
    if (attempts == 0)
        return 100.0;
    return 100.0 * double(r.ok) / double(attempts);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::uint64_t ops = 2500;
    std::uint64_t fibers = 8;
    unsigned jobs = sweep::SweepRunner::envJobs();

    for (int i = 1; i < argc; ++i) {
        std::string key, value;
        if (!toolargs::parseKv(argv[i], key, value)) {
            toolargs::reportBadArg("abl_outage", argv[i]);
            return 1;
        }
        // Strict parses: a typo like ops=25oo or seed=" -1" must
        // fail the run, not silently truncate or wrap.
        bool ok = true;
        if (key == "seed") {
            ok = toolargs::parseU64(value, seed);
        } else if (key == "ops") {
            ok = toolargs::parseU64(value, ops);
        } else if (key == "fibers") {
            ok = toolargs::parseU64(value, fibers);
        } else if (key == "jobs") {
            // The four cells are independent runs: they go to the
            // figure benches' worker pool, merged by cell index.
            ok = sweep::SweepRunner::parseJobs(value, jobs);
        } else if (key == "bench_json") {
            // Accepted for driver compatibility: the figure-bench
            // harness passes it, but this bench keeps no sweep log.
        } else {
            toolargs::reportUnknownKey("abl_outage", key);
            return 1;
        }
        if (!ok) {
            toolargs::reportBadValue("abl_outage", key, value);
            return 1;
        }
    }
    if (ops == 0 || fibers == 0) {
        std::fprintf(stderr, "abl_outage: ops and fibers must be "
                             "nonzero\n");
        return 1;
    }

    struct Cell
    {
        const char *label;
        health::Mode mode;
        bool faults;
    };
    const Cell cells[] = {
        {"fault_free", health::Mode::Off, false},
        {"static", health::Mode::Off, true},
        {"governor", health::Mode::GovernorOnly, true},
        {"full", health::Mode::Full, true},
    };

    Table table("Extension — 1-of-4-shard outage: goodput and tail "
                "latency by control-plane configuration");
    table.setHeader({"config", "issued", "ok", "deadline_errors",
                     "verify_errors", "retries", "timeouts",
                     "failovers", "degraded", "quarantined",
                     "recovered", "probes", "goodput_pct",
                     "p50_polls", "p999_polls", "max_polls",
                     "total_polls"});

    // Each cell runs in a fresh runtime of its own, so a worker
    // computes it exactly as this process would; its CellResult
    // comes back as raw bytes (same binary on both ends of the pipe).
    static_assert(std::is_trivially_copyable_v<CellResult>);
    sweep::SweepRunner pool;
    const std::vector<sweep::SweepRunner::Payload> results =
        pool.runPayloads(
            std::size(cells),
            [&](std::size_t i) {
                const CellResult r = runCell(cells[i].mode,
                                             cells[i].faults, seed,
                                             ops, fibers);
                sweep::SweepRunner::Payload bytes(sizeof r);
                std::memcpy(bytes.data(), &r, sizeof r);
                return bytes;
            },
            jobs);

    bool failed = false;
    for (std::size_t i = 0; i < std::size(cells); ++i) {
        const Cell &c = cells[i];
        kmuAssert(results[i].size() == sizeof(CellResult),
                  "outage cell %zu came back with %zu bytes", i,
                  results[i].size());
        CellResult r;
        std::memcpy(&r, results[i].data(), sizeof r);
        if (r.verifyErrors != 0 ||
            r.ok + r.deadlineErrors != r.issued)
            failed = true;
        table.addRow({c.label, Table::num(r.issued),
                      Table::num(r.ok),
                      Table::num(r.deadlineErrors),
                      Table::num(r.verifyErrors),
                      Table::num(r.retries), Table::num(r.timeouts),
                      Table::num(r.failovers),
                      Table::num(r.health.degradations),
                      Table::num(r.health.quarantines),
                      Table::num(r.health.recoveries),
                      Table::num(r.health.probes),
                      Table::num(goodputPct(r), 3),
                      Table::num(r.p50), Table::num(r.p999),
                      Table::num(r.pmax),
                      Table::num(r.totalPolls)});
    }

    table.printAscii(std::cout);
    table.writeCsvFile("abl_outage.csv");
    if (failed) {
        std::fprintf(stderr, "abl_outage: verify error or lost "
                             "request (ok + deadline_errors != "
                             "issued)\n");
        return 1;
    }
    return 0;
}
