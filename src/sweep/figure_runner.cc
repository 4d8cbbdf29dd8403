#include "sweep/figure_runner.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/logging.hh"
#include "sweep/bench_log.hh"

namespace kmu
{

namespace
{

/** Exact bit pattern of a double, for collision-free memo keys. */
unsigned long long
bits(double v)
{
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

const RunResult &
baselineDummy()
{
    // Collect-pass placeholder. workIpc=1 keeps any stray
    // normalizedWorkIpc(point, baseline) call in a bench body finite
    // (the real values only exist in the render pass).
    static const RunResult dummy = [] {
        RunResult r;
        r.workIpc = 1.0;
        r.elapsed = 1;
        return r;
    }();
    return dummy;
}

} // anonymous namespace

std::string
FigureRunner::baselineKey(const SystemConfig &cfg)
{
    // Everything baselineConfig() does NOT override and that a
    // single-core, single-thread, on-demand, DRAM-backed run can
    // observe. Deliberately absent: device/PCIe parameters, the
    // attach point, chip queue caps, SMT count, prefetch issue cost,
    // and the software-queue cost block — none of them exist on the
    // baseline's access path, and keying on them would only shred
    // baseline sharing across sweep columns.
    return csprintf(
        "wc%u b%u wf%016llx st%llu lfb%u "
        "f%016llx ipc%016llx rob%u loop%u hit%llu ctx%llu "
        "dr%llu dq%u l1%d:%u:%u p%d a%d wu%llu me%llu",
        cfg.workCount, cfg.batch, bits(cfg.writeFraction),
        (unsigned long long)cfg.storeLatency, cfg.lfbPerCore,
        bits(cfg.coreFreqHz), bits(cfg.workIpc), cfg.robSize,
        cfg.loopOverheadInstrs,
        (unsigned long long)cfg.loadHitLatency,
        (unsigned long long)cfg.ctxSwitchCost,
        (unsigned long long)cfg.dram.latency, cfg.dram.queueDepth,
        int(cfg.l1Enabled), cfg.l1.sizeBytes, cfg.l1.ways,
        int(bool(cfg.plan)), int(bool(cfg.addressPlan)),
        (unsigned long long)cfg.warmup,
        (unsigned long long)cfg.measure);
}

std::size_t
FigureRunner::enqueue(const SystemConfig &cfg)
{
    points.push_back(cfg);
    return points.size() - 1;
}

const RunResult &
FigureRunner::nextSequenced(const SystemConfig &cfg,
                            const RunResult &dummy)
{
    if (ph == Phase::Collect) {
        order.push_back(enqueue(cfg));
        return dummy;
    }
    kmuAssert(cursor < order.size(),
              "render pass made more runner calls than collect "
              "(call %zu of %zu): figure bodies must be "
              "deterministic", cursor, order.size());
    return results[order[cursor++]];
}

RunResult
FigureRunner::run(const SystemConfig &cfg)
{
    // The same inert placeholder as baselines: bodies routinely feed
    // collect-pass results straight into normalizedWorkIpc(), which
    // rejects a zero-IPC baseline.
    return nextSequenced(cfg, baselineDummy());
}

const RunResult &
FigureRunner::baseline(const SystemConfig &cfg)
{
    // Closures have no comparable identity: a config carrying one
    // cannot share a memo slot, so it pays one baseline point per
    // call site instead of risking a wrong-bucket hit.
    if (cfg.plan || cfg.addressPlan)
        return nextSequenced(baselineConfig(cfg), baselineDummy());

    const std::string key = baselineKey(cfg);
    if (ph == Phase::Collect) {
        if (keyed.find(key) == keyed.end())
            keyed.emplace(key, enqueue(baselineConfig(cfg)));
        return baselineDummy();
    }
    const auto it = keyed.find(key);
    kmuAssert(it != keyed.end(),
              "baseline for key '%s' was never collected",
              key.c_str());
    return results[it->second];
}

double
FigureRunner::normalized(const SystemConfig &cfg)
{
    const RunResult res = run(cfg);
    const RunResult &base = baseline(cfg);
    if (ph == Phase::Collect)
        return 0.0;
    return normalizedWorkIpc(res, base);
}

void
FigureRunner::emit(const Table &table, const std::string &csvName)
{
    if (ph != Phase::Render)
        return;
    table.printAscii(std::cout);
    table.writeCsvFile(csvName);
    std::cout << "(csv written to " << csvName << ")\n\n";
}

void
FigureRunner::beginCollect()
{
    ph = Phase::Collect;
    points.clear();
    results.clear();
    order.clear();
    keyed.clear();
    cursor = 0;
    executed = false;
}

sweep::SweepRunner::Stats
FigureRunner::execute(unsigned jobs)
{
    kmuAssert(ph == Phase::Collect && !executed,
              "execute() follows exactly one collect pass");
    sweep::SweepRunner::Stats stats;
    sweep::SweepRunner pool;
    results = pool.run(
        points.size(),
        [this](std::size_t i) { return runSystem(points[i]); },
        jobs, &stats);
    executed = true;
    return stats;
}

void
FigureRunner::beginRender()
{
    kmuAssert(executed, "render requires executed results");
    ph = Phase::Render;
    cursor = 0;
}

namespace
{

/** Swallows the collect pass's table/notes output. */
class NullBuf : public std::streambuf
{
  protected:
    int
    overflow(int c) override
    {
        return c == traits_type::eof() ? 0 : c;
    }
};

} // anonymous namespace

int
figureMain(int argc, char **argv, const std::string &figure,
           const std::function<void(FigureRunner &)> &body)
{
    unsigned jobs = sweep::SweepRunner::envJobs();
    const char *env_json = std::getenv("KMU_BENCH_JSON");
    std::string bench_json = env_json ? env_json : "BENCH_sweep.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "jobs" && eq != std::string::npos &&
            sweep::SweepRunner::parseJobs(value, jobs))
            continue;
        if (key == "bench_json" && eq != std::string::npos) {
            bench_json = value;
            continue;
        }
        std::fprintf(stderr,
            "%s: bad option '%s'\n"
            "usage: %s [jobs=N] [bench_json=FILE]\n"
            "  jobs=N          worker processes; 0 = one per CPU\n"
            "                  (default: KMU_JOBS env, else 1)\n"
            "  bench_json=FILE self-measurement log, '' disables\n"
            "                  (default: KMU_BENCH_JSON env, else "
            "BENCH_sweep.json)\n",
            figure.c_str(), arg.c_str(), figure.c_str());
        return 1;
    }

    FigureRunner runner;
    runner.beginCollect();
    {
        NullBuf null;
        std::streambuf *saved = std::cout.rdbuf(&null);
        body(runner);
        std::cout.rdbuf(saved);
    }

    const sweep::SweepRunner::Stats stats = runner.execute(jobs);

    runner.beginRender();
    body(runner);

    if (!bench_json.empty() &&
        !sweep::appendBenchRecord(bench_json, figure, stats)) {
        std::fprintf(stderr, "%s: cannot write %s\n", figure.c_str(),
                     bench_json.c_str());
    }
    std::fprintf(stderr,
                 "%s: %zu points, jobs=%u, %.3fs wall "
                 "(serial est %.3fs, %.2fx), %.3g Mevents/s%s\n",
                 figure.c_str(), stats.points, stats.jobs,
                 stats.wallSeconds, stats.serialSeconds,
                 stats.wallSeconds > 0.0
                     ? stats.serialSeconds / stats.wallSeconds
                     : 1.0,
                 stats.kernelSeconds > 0.0
                     ? double(stats.kernelEvents) /
                           stats.kernelSeconds / 1e6
                     : 0.0,
                 stats.pointsRecovered
                     ? csprintf(" [%zu points recovered]",
                                stats.pointsRecovered).c_str()
                     : "");
    return 0;
}

} // namespace kmu
