/**
 * @file
 * In-process half of the kmu benchmark (run.py is the other half).
 *
 * Drives kmu only through its public API and times every call from
 * the outside with std::chrono::steady_clock. Four modes:
 *
 *   model  — closed- and open-loop timing-model points, each with its
 *            plan-matched DRAM baseline, repeated for a time budget;
 *   chase  — the host runtime on a seeded random pointer chase over a
 *            device image larger than the LLC, one pass per mechanism;
 *   ledger — per-layer probes (event kernel, wire format, fibers,
 *            SPSC rings, app trace capture, trace-layer overhead);
 *   probe  — the host speed probe alone (see probeSeconds()).
 *
 * Output is one JSON document on stdout. Verification against
 * expected files happens in run.py; this program reports raw rows,
 * timings, counters and (with trace=1) spans around each call into a
 * layer. Usage: kmubench_driver MODE key=value...
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "access/runtime.hh"
#include "apps/workloads.hh"
#include "core/run_result_wire.hh"
#include "core/sim_system.hh"
#include "queue/descriptor.hh"
#include "queue/spsc_ring.hh"
#include "sim/event.hh"
#include "trace/trace.hh"
#include "ult/scheduler.hh"

using namespace kmu;

namespace
{

using Clock = std::chrono::steady_clock;

double
nowNs()
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Flat JSON object builder: keys in insertion order. */
class Json
{
  public:
    Json &
    add(const std::string &key, double v)
    {
        return raw(key, num(v));
    }
    Json &
    add(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    Json &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ", ") + quote(key) + ": " + json;
        return *this;
    }
    std::string str() const { return "{" + body + "}"; }

  private:
    std::string body;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

std::string
jsonNumbers(const std::vector<double> &v)
{
    std::vector<std::string> items;
    for (double x : v)
        items.push_back(num(x));
    return jsonArray(items);
}

/**
 * Spans around calls into kmu layers. A span's name starts with the
 * layer ("core.run"); its parent is the innermost span open when it
 * began. Recording is a no-op unless enabled, so untraced runs pay
 * one branch per call.
 */
class Spans
{
  public:
    bool on = false;

    class Scope
    {
      public:
        Scope(Spans &s, std::string name) : spans(s)
        {
            if (spans.on)
                index = spans.open(std::move(name));
        }
        ~Scope()
        {
            if (index >= 0)
                spans.close(index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans;
        int index = -1;
    };

    /** Record a child of the innermost open span whose interval the
     *  program measured itself (only its length is known). */
    void
    addMeasuredChild(const std::string &name, double seconds)
    {
        if (!on || stack.empty())
            return;
        const double start = records[std::size_t(stack.back())].start;
        records.push_back({name, stack.back(), start,
                           start + seconds * 1e9});
    }

    std::string
    json() const
    {
        std::vector<std::string> items;
        for (const Record &r : records)
            items.push_back("[" + quote(r.name) + ", " +
                            std::to_string(r.parent) + ", " +
                            num(r.start) + ", " + num(r.end) + "]");
        return jsonArray(items);
    }

  private:
    struct Record
    {
        std::string name;
        int parent;
        double start;
        double end;
    };

    int
    open(std::string name)
    {
        const int parent = stack.empty() ? -1 : stack.back();
        records.push_back({std::move(name), parent, nowNs(), 0.0});
        stack.push_back(int(records.size() - 1));
        return stack.back();
    }

    void
    close(int index)
    {
        records[std::size_t(index)].end = nowNs();
        stack.pop_back();
    }

    std::vector<Record> records;
    std::vector<int> stack;
};

Spans spans;

/** Command-line key=value options. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            const std::string a = argv[i];
            const auto eq = a.find('=');
            if (eq == std::string::npos) {
                std::fprintf(stderr, "bad option '%s'\n", a.c_str());
                std::exit(2);
            }
            kv[a.substr(0, eq)] = a.substr(eq + 1);
        }
    }

    double
    get(const std::string &key, double fallback) const
    {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : std::atof(it->second.c_str());
    }

    std::uint64_t
    u64(const std::string &key, std::uint64_t fallback) const
    {
        const auto it = kv.find(key);
        return it == kv.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 10);
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : it->second;
    }

  private:
    std::map<std::string, std::string> kv;
};

/** Largest cache the CPU reports through CPUID (Intel leaf 4 or AMD
 *  leaf 0x8000001d), in MiB; 0 when unknown. */
double
llcMib()
{
    double best = 0.0;
#if defined(__x86_64__)
    for (unsigned leaf : {4u, 0x8000001du}) {
        for (unsigned sub = 0; sub < 16; ++sub) {
            unsigned a = 0, b = 0, c = 0, d = 0;
            if (!__get_cpuid_count(leaf, sub, &a, &b, &c, &d) ||
                (a & 0x1f) == 0)
                break;
            const double ways = ((b >> 22) & 0x3ff) + 1;
            const double parts = ((b >> 12) & 0x3ff) + 1;
            const double line = (b & 0xfff) + 1;
            const double sets = double(c) + 1;
            best = std::max(best, ways * parts * line * sets / (1 << 20));
        }
    }
#endif
    return best;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

/**
 * Host speed probe: a fixed mix of integer work and random accesses
 * to a 2 MiB table, independent of kmu. Timed sections are reported
 * in units of this probe as well as in seconds: on a shared host the
 * two drift together, so the ratio is what stays comparable.
 */
double
probeSeconds()
{
    static std::vector<std::uint64_t> table(1 << 18, 1);
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
        const double t0 = nowNs();
        std::uint64_t x = 88172645463325252ull, acc = 0;
        for (int i = 0; i < 8000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &slot = table[x & (table.size() - 1)];
            acc += slot;
            slot = acc ^ x;
        }
        asm volatile("" : : "r"(acc) : "memory"); // keep the loop
        reps.push_back((nowNs() - t0) * 1e-9);
    }
    return median(reps);
}

// ---------------------------------------------------------------- model

/** Measurement window of the model_steady points: ten times the
 *  figures' 600 us, so construction is a small share of each pass. */
constexpr std::uint64_t steadyMeasureUs = 6000;

/** Chase image size: several times a 105 MiB LLC. */
constexpr std::uint64_t chaseImageMib = 384;

struct Point
{
    std::string name;
    SystemConfig cfg;
};

/**
 * The model_steady points. The closed-loop ones are exactly the
 * figure cells they are named after (same defaults and windows), so
 * their rows match the committed figures.
 */
std::vector<Point>
modelPoints(std::uint64_t seed, std::uint64_t measure_us)
{
    std::vector<Point> pts;
    const auto add = [&pts, measure_us](std::string name, Mechanism mech,
                            std::uint32_t cores, std::uint32_t threads,
                            unsigned us) -> SystemConfig & {
        SystemConfig cfg;
        cfg.mechanism = mech;
        cfg.numCores = cores;
        cfg.threadsPerCore = threads;
        cfg.device.latency = microseconds(us);
        cfg.measure = microseconds(measure_us);
        pts.push_back({std::move(name), cfg});
        return pts.back().cfg;
    };
    add("fig03_prefetch_1x10", Mechanism::Prefetch, 1, 10, 1);
    add("fig05_prefetch_8x8", Mechanism::Prefetch, 8, 8, 1);
    add("fig07_swqueue_1x16", Mechanism::SwQueue, 1, 16, 1);
    add("fig08_swqueue_8x24", Mechanism::SwQueue, 8, 24, 1);
    add("fig09_swqueue_1x16_b4", Mechanism::SwQueue, 1, 16, 1).batch = 4;
    SystemConfig &mix =
        add("write_mix_swqueue_1x24_b2", Mechanism::SwQueue, 1, 24, 1);
    mix.batch = 2;
    mix.writeFraction = 0.5;
    mix.topo.shards = 4;
    SystemConfig &open =
        add("open_loop_swqueue_1x16", Mechanism::SwQueue, 1, 16, 4);
    open.serve.arrival = serve::ArrivalKind::Poisson;
    open.serve.lambdaPerUs = 0.875;
    open.serve.zipfTheta = 0.99;
    open.serve.valueLines = 4;
    open.serve.sloUs = 20.0;
    open.serve.seed = seed;
    return pts;
}

/** Full-precision result row: readable fields plus a digest of the
 *  bit-exact wire encoding, which covers every RunResult field. */
std::string
resultRow(const std::string &name, const RunResult &r)
{
    return csprintf(
        "%s iterations=%llu work_instrs=%llu accesses=%llu writes=%llu "
        "work_ipc=%.17g accesses_per_us=%.17g read_latency_ns=%.17g "
        "wire_gbs=%.17g useful_gbs=%.17g chipq_peak=%u "
        "replay_misses=%llu serve_completed=%llu serve_p99_ns=%.17g "
        "events=%llu wire_fnv=%016llx",
        name.c_str(), (unsigned long long)r.iterations,
        (unsigned long long)r.workInstrs,
        (unsigned long long)r.accesses, (unsigned long long)r.writes,
        r.workIpc, r.accessesPerUs, r.meanReadLatencyNs,
        r.toHostWireGBs, r.toHostUsefulGBs, r.chipQueuePeak,
        (unsigned long long)r.replayMisses,
        (unsigned long long)r.serveCompleted, r.serveP99Ns,
        (unsigned long long)r.kernelEvents,
        (unsigned long long)fnv1a(serializeRunResult(r)));
}

/** Sum every Counter whose dotted name ends in one of the suffixes. */
void
sumStats(SimSystem &sys, std::map<std::string, double> &acc)
{
    static const char *suffixes[] = {
        "lfb.allocs", "lfb.merges", "lfb.rejections",
        "chip_pcie_queue.entries", "chip_pcie_queue.full_stalls",
        "burst_reads", "descriptors_fetched", "empty_bursts",
        "poll_passes", "completions_handled", "checker.sweeps"};
    std::ostringstream os;
    sys.stats().dump(os);
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, value;
        if (!(fields >> name >> value))
            continue;
        for (const char *suffix : suffixes) {
            const std::size_t n = std::strlen(suffix);
            if (name.size() > n &&
                name.compare(name.size() - n, n, suffix) == 0 &&
                name[name.size() - n - 1] == '.')
                acc[suffix] += std::atof(value.c_str());
        }
    }
}

double
simulatedUs(const SystemConfig &cfg)
{
    return ticksToUs(cfg.warmup + cfg.measure);
}

struct Timed
{
    RunResult result;
    double buildS = 0.0;
    double runS = 0.0;
};

/** Construct and run one system, timing both halves. */
Timed
timedRun(const SystemConfig &cfg, const char *build_span,
         const char *run_span)
{
    Timed t;
    const double t0 = nowNs();
    std::unique_ptr<SimSystem> sys;
    {
        Spans::Scope s(spans, build_span);
        sys = std::make_unique<SimSystem>(cfg);
    }
    const double t1 = nowNs();
    {
        Spans::Scope s(spans, run_span);
        t.result = sys->run();
        spans.addMeasuredChild("sim.kernel",
                               t.result.kernelWallSeconds);
    }
    const double t2 = nowNs();
    t.buildS = (t1 - t0) * 1e-9;
    t.runS = (t2 - t1) * 1e-9;
    return t;
}

int
modelMode(const Args &args)
{
    const std::uint64_t seed = args.u64("seed", 1);
    const double budget = args.get("seconds", 5.0);
    const std::uint64_t min_passes = args.u64("min_passes", 1);
    const std::string only = args.str("points", "all");
    const bool traced = args.u64("trace", 0) != 0;
    const double first_op = nowNs();

    std::vector<Point> pts = modelPoints(seed, steadyMeasureUs);
    if (only == "anchors") {
        std::vector<Point> keep;
        for (Point &p : pts)
            if (p.name.rfind("fig05", 0) == 0 ||
                p.name.rfind("fig08", 0) == 0 ||
                p.name.rfind("fig09", 0) == 0)
                keep.push_back(std::move(p));
        pts = std::move(keep);
    }

    std::vector<double> wall, setup, simus, build_s, run_s, base_s;
    std::vector<double> ns_per_event, span_on_wall, span_off_wall,
        ref;
    std::vector<std::string> pass_rows;
    std::map<std::string, double> counters;
    double events = 0.0;
    RunResult open_loop;
    const double start = nowNs();
    for (std::uint64_t pass = 0;; ++pass) {
        // Traced runs alternate spans on and off so that the
        // difference between the two medians is the tracing cost.
        spans.on = traced && pass % 2 == 0;
        std::vector<std::string> rows;
        double pass_setup = 0.0, pass_run = 0.0, pass_us = 0.0;
        double pass_build = 0.0, pass_point_run = 0.0,
               pass_base = 0.0, pass_kernel = 0.0, pass_events = 0.0;
        {
            Spans::Scope s(spans, "bench.model_pass");
            for (const Point &p : pts) {
                const bool serving = p.cfg.serve.enabled();
                const Timed pt = timedRun(p.cfg, "core.build",
                                          serving ? "serve.run"
                                                  : "core.run");
                Timed base;
                {
                    Spans::Scope b(spans, "core.baseline");
                    base = timedRun(baselineConfig(p.cfg),
                                    "core.build", "core.run");
                }
                pass_setup += pt.buildS + base.buildS;
                pass_run += pt.runS + base.runS;
                pass_us += simulatedUs(p.cfg) +
                           simulatedUs(baselineConfig(p.cfg));
                pass_build += pt.buildS;
                pass_point_run += pt.runS;
                pass_base += base.buildS + base.runS;
                rows.push_back(resultRow(p.name, pt.result));
                rows.push_back(resultRow(p.name + ".baseline",
                                         base.result));
                pass_events += double(pt.result.kernelEvents +
                                      base.result.kernelEvents);
                pass_kernel += pt.result.kernelWallSeconds +
                               base.result.kernelWallSeconds;
                if (serving)
                    open_loop = pt.result;
            }
        }
        wall.push_back(pass_run);
        ref.push_back(probeSeconds());
        setup.push_back(pass_setup);
        simus.push_back(pass_us / pass_run);
        build_s.push_back(pass_build);
        run_s.push_back(pass_point_run);
        base_s.push_back(pass_base);
        ns_per_event.push_back(pass_kernel * 1e9 / pass_events);
        events = pass_events;
        (spans.on ? span_on_wall : span_off_wall)
            .push_back(pass_setup + pass_run);
        std::vector<std::string> quoted;
        for (const std::string &r : rows)
            quoted.push_back(quote(r));
        pass_rows.push_back(jsonArray(quoted));
        if (pass + 1 >= min_passes && (nowNs() - start) * 1e-9 >= budget)
            break;
    }

    // Component counters are deterministic: collect them once, from
    // systems built outside the timed passes.
    if (traced) {
        spans.on = false;
        for (const Point &p : pts) {
            SimSystem sys(p.cfg);
            sys.run();
            sumStats(sys, counters);
        }
    }

    Json out;
    out.add("mode", "model");
    out.add("first_op_ns", first_op);
    out.add("passes", double(wall.size()));
    out.raw("wall_s", jsonNumbers(wall));
    out.raw("probe_s", jsonNumbers(ref));
    out.raw("setup_s", jsonNumbers(setup));
    out.raw("sim_us_per_s", jsonNumbers(simus));
    out.raw("rows", jsonArray(pass_rows));
    out.add("core.build_s", median(build_s));
    out.add("core.run_s", median(run_s));
    out.add("core.baseline_s", median(base_s));
    out.add("sim.events", events);
    out.add("sim.ns_per_event", median(ns_per_event));
    out.add("span_on_wall_s", median(span_on_wall));
    out.add("span_off_wall_s", median(span_off_wall));
    Json c;
    for (const auto &[k, v] : counters)
        c.add(k, v);
    out.raw("counters", c.str());
    out.add("serve.offered", double(open_loop.serveOffered));
    out.add("serve.completed", double(open_loop.serveCompleted));
    out.add("serve.p99_ns", open_loop.serveP99Ns);
    out.raw("spans", spans.json());
    std::printf("%s\n", out.str().c_str());
    return 0;
}

// ---------------------------------------------------------------- chase

/** A seeded single-cycle permutation of the image's lines. */
struct ChaseImage
{
    std::vector<std::uint32_t> next;
    std::uint64_t seed = 0;

    std::uint64_t
    word(std::uint64_t line) const
    {
        return (splitmix(seed ^ (line << 1)) << 32) | next[line];
    }

    /** Device image: line i holds word(i) in its first 8 bytes. */
    std::vector<std::uint8_t>
    build() const
    {
        std::vector<std::uint8_t> img(next.size() * cacheLineSize);
        for (std::uint64_t i = 0; i < next.size(); ++i) {
            const std::uint64_t w = word(i);
            std::memcpy(&img[i * cacheLineSize], &w, sizeof(w));
        }
        return img;
    }
};

ChaseImage
makeChase(std::uint64_t lines, std::uint64_t seed)
{
    ChaseImage c;
    c.seed = seed;
    c.next.resize(lines);
    for (std::uint64_t i = 0; i < lines; ++i)
        c.next[i] = std::uint32_t(i);
    // Sattolo: a uniformly random permutation with a single cycle.
    std::uint64_t s = seed;
    for (std::uint64_t i = lines - 1; i > 0; --i) {
        s = splitmix(s);
        std::swap(c.next[i], c.next[s % i]);
    }
    return c;
}

struct Walk
{
    std::uint64_t pos = 0;
    std::uint64_t sum = 0;
};

/** One dependent chase step: the loaded word names the next line. */
inline void
step(Walk &w, std::uint64_t word)
{
    w.sum = w.sum * 31 + word;
    w.pos = word & 0xffffffffull;
}

/** The chase as plain loads from @p img; returns its seconds and
 *  leaves the final position and checksum in @p out. */
double
plainWalk(const std::uint8_t *img, std::uint64_t start,
          std::uint64_t steps, Walk &out)
{
    Walk w{start, 0};
    const double t0 = nowNs();
    for (std::uint64_t i = 0; i < steps; ++i) {
        std::uint64_t word;
        std::memcpy(&word, img + w.pos * cacheLineSize, sizeof(word));
        step(w, word);
    }
    out = w;
    return (nowNs() - t0) * 1e-9;
}

struct MechRun
{
    const char *name;
    Mechanism mech;
    std::uint32_t fibers;
    std::uint64_t steps; //!< per fiber
};

int
chaseMode(const Args &args)
{
    const std::uint64_t seed = args.u64("seed", 1);
    const double budget = args.get("seconds", 5.0);
    const std::uint64_t min_passes = args.u64("min_passes", 1);
    const bool traced = args.u64("trace", 0) != 0;
    const std::uint64_t lines = chaseImageMib * (1u << 20) / cacheLineSize;
    // Steps sized so each mechanism runs for a few hundred ms.
    const MechRun mechs[] = {
        {"ondemand", Mechanism::OnDemand, 1, 2000000},
        {"prefetch", Mechanism::Prefetch, 8, 500000},
        {"swqueue", Mechanism::SwQueue, 8, 60000},
    };

    ChaseImage chase;
    {
        Spans::Scope s(spans, "bench.permutation");
        chase = makeChase(lines, seed);
    }
    std::vector<std::uint64_t> starts;
    for (std::uint32_t f = 0; f < 8; ++f)
        starts.push_back(splitmix(seed * 8 + f + 1) % lines);

    const double first_op = nowNs();
    std::map<std::string, std::vector<double>> rate;
    std::vector<double> setup, wall, gain, plain, plain_s, span_on, span_off;
    double switches_per_access = 0.0, swq_reads = 0.0, swq_reissues = 0.0;
    std::map<std::string, std::vector<std::vector<Walk>>> finals;
    std::uint64_t plain_mismatch = 0;
    const double start = nowNs();
    for (std::uint64_t pass = 0;; ++pass) {
        spans.on = traced && pass % 2 == 0;
        double pass_setup = 0.0;
        double pass_wall = 0.0;
        Spans::Scope ps(spans, "bench.chase_pass");
        for (const MechRun &m : mechs) {
            const double t0 = nowNs();
            std::vector<std::uint8_t> img;
            {
                Spans::Scope s(spans, "bench.image");
                img = chase.build();
            }
            Runtime::Config rc;
            rc.mechanism = m.mech;
            rc.deviceLatency = std::chrono::microseconds(1);
            // The watchdog counts poll ticks, not time: when the OS
            // deschedules the device thread, a spinning host re-issues
            // until the default budget of 16 runs out and panics.
            // Re-issues are measured (reissue_frac), not fatal.
            rc.retry.maxRetries = 1u << 20;
            std::unique_ptr<Runtime> rt;
            {
                Spans::Scope s(spans, "access.runtime_build");
                rt = std::make_unique<Runtime>(std::move(img), rc);
            }
            std::vector<Walk> got(m.fibers);
            {
                Spans::Scope s(spans, "ult.spawn");
                for (std::uint32_t f = 0; f < m.fibers; ++f) {
                    const std::uint64_t steps = m.steps;
                    Walk *out = &got[f];
                    out->pos = starts[f];
                    rt->spawnWorker([out, steps](AccessEngine &dev) {
                        Walk w = *out;
                        for (std::uint64_t i = 0; i < steps; ++i)
                            step(w, dev.read64(w.pos * cacheLineSize));
                        *out = w;
                    });
                }
            }
            // The reference: the same walk as plain loads on the same
            // image, just before and just after the on-demand engine,
            // so it sees the same state of this host's memory.
            Walk plain_before, plain_after;
            double before_s = 0.0;
            if (m.mech == Mechanism::OnDemand)
                before_s = plainWalk(rt->deviceImage(), starts[0],
                                     m.steps, plain_before);
            const double t1 = nowNs();
            {
                Spans::Scope s(spans, std::string("access.run.") +
                                          m.name);
                rt->run();
            }
            const double t2 = nowNs();
            const double accesses = double(rt->engine().accesses());
            rate[m.name].push_back(accesses / ((t2 - t1) * 1e-3));
            if (m.mech == Mechanism::OnDemand) {
                const double after_s = plainWalk(
                    rt->deviceImage(), starts[0], m.steps, plain_after);
                plain_s.push_back(0.5 * (before_s + after_s));
                plain.push_back(double(m.steps) / (plain_s.back() * 1e6));
                for (const Walk &w : {plain_before, plain_after})
                    plain_mismatch +=
                        w.pos != got[0].pos || w.sum != got[0].sum;
            }
            if (m.mech == Mechanism::Prefetch && pass == 0)
                switches_per_access =
                    double(rt->scheduler().switches()) / accesses;
            if (m.mech == Mechanism::SwQueue) {
                swq_reads += accesses;
                swq_reissues += double(rt->engine().recovery().retries);
            }
            pass_setup += (t1 - t0) * 1e-9 - before_s;
            pass_wall += (t2 - t1) * 1e-9;
            finals[m.name].push_back(std::move(got));
            const double t3 = nowNs();
            rt.reset();
            pass_setup += (nowNs() - t3) * 1e-9;
        }
        setup.push_back(pass_setup);
        wall.push_back(pass_wall);
        gain.push_back(rate["prefetch"].back() / rate["ondemand"].back());
        (spans.on ? span_on : span_off).push_back(pass_setup + pass_wall);
        if (pass + 1 >= min_passes && (nowNs() - start) * 1e-9 >= budget)
            break;
    }

    // Host-side oracle: walk the permutation itself, then check every
    // fiber's final position and checksum from every pass.
    std::uint64_t attempted = 0, failed = 0;
    spans.on = false;
    for (const MechRun &m : mechs) {
        for (std::uint32_t f = 0; f < m.fibers; ++f) {
            Walk want{starts[f], 0};
            for (std::uint64_t i = 0; i < m.steps; ++i)
                step(want, chase.word(want.pos));
            for (const std::vector<Walk> &got : finals[m.name]) {
                attempted++;
                if (got[f].pos != want.pos || got[f].sum != want.sum)
                    failed++;
            }
        }
    }

    Json out;
    out.add("mode", "chase");
    out.add("first_op_ns", first_op);
    out.add("passes", double(wall.size()));
    out.add("image_mib", double(chaseImageMib));
    out.add("llc_mib", llcMib());
    out.add("attempted", double(attempted));
    out.add("failed", double(failed + plain_mismatch));
    out.raw("wall_s", jsonNumbers(wall));
    out.raw("setup_s", jsonNumbers(setup));
    out.raw("ondemand_per_us", jsonNumbers(rate["ondemand"]));
    out.raw("prefetch_per_us", jsonNumbers(rate["prefetch"]));
    out.raw("swqueue_per_us", jsonNumbers(rate["swqueue"]));
    out.raw("interleave_gain", jsonNumbers(gain));
    out.raw("plain_per_us", jsonNumbers(plain));
    out.raw("plain_s", jsonNumbers(plain_s));
    out.add("ult.switches_per_access", switches_per_access);
    out.add("access.swqueue.reissue_frac", swq_reissues / swq_reads);
    out.add("span_on_wall_s", median(span_on));
    out.add("span_off_wall_s", median(span_off));
    out.raw("spans", spans.json());
    std::printf("%s\n", out.str().c_str());
    return 0;
}

// --------------------------------------------------------------- ledger

/** Median ns per operation of @p reps timings of @p body(ops). */
template <typename F>
double
nsPerOp(std::uint64_t ops, int reps, F &&body)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowNs();
        body(ops);
        v.push_back((nowNs() - t0) / double(ops));
    }
    return median(v);
}

/** Member event that reschedules itself until the budget runs out. */
class HoldEvent : public Event
{
  public:
    HoldEvent(EventQueue &q, std::uint64_t &budget, std::uint64_t seed)
        : Event("hold"), eq(q), left(budget), rng(seed)
    {
    }

    void
    process() override
    {
        if (left == 0)
            return;
        left--;
        rng = splitmix(rng);
        eq.schedule(this, eq.curTick() + 1 + rng % 4096);
    }

  private:
    EventQueue &eq;
    std::uint64_t &left;
    std::uint64_t rng;
};

/** Hold model: a steady population of pending events, each service
 *  scheduling one more; ns per schedule-and-service. */
double
holdNs(std::uint64_t ops, std::uint32_t population)
{
    EventQueue eq;
    std::uint64_t budget = ops;
    std::vector<std::unique_ptr<HoldEvent>> evs;
    for (std::uint32_t i = 0; i < population; ++i) {
        evs.push_back(std::make_unique<HoldEvent>(eq, budget, i + 1));
        eq.schedule(evs.back().get(), 1 + i);
    }
    const double t0 = nowNs();
    eq.run();
    return (nowNs() - t0) / double(ops);
}

struct LambdaHold
{
    EventQueue &eq;
    std::uint64_t &left;

    void
    arm(std::uint64_t rng)
    {
        eq.scheduleLambda(eq.curTick() + 1 + rng % 4096, [this, rng] {
            if (left == 0)
                return;
            left--;
            arm(splitmix(rng));
        });
    }
};

double
lambdaHoldNs(std::uint64_t ops, std::uint32_t population)
{
    EventQueue eq;
    std::uint64_t budget = ops;
    LambdaHold h{eq, budget};
    for (std::uint32_t i = 0; i < population; ++i)
        h.arm(splitmix(i + 1));
    const double t0 = nowNs();
    eq.run();
    return (nowNs() - t0) / double(ops);
}

int
ledgerMode()
{
    spans.on = true;
    const int reps = 5;
    Json out;
    out.add("mode", "ledger");

    {
        Spans::Scope s(spans, "sim.hold");
        std::vector<double> v;
        for (int r = 0; r < reps; ++r)
            v.push_back(holdNs(400000, 1024));
        out.add("sim.hold_ns", median(v));
    }
    {
        Spans::Scope s(spans, "sim.lambda_hold");
        std::vector<double> v;
        for (int r = 0; r < reps; ++r)
            v.push_back(lambdaHoldNs(400000, 1024));
        out.add("sim.lambda_hold_ns", median(v));
    }

    // Wire round trip of a real result, checked bit for bit.
    SystemConfig wcfg = modelPoints(1, 600)[3].cfg;
    const RunResult res = runSystem(wcfg);
    const std::vector<std::uint8_t> ref = serializeRunResult(res);
    bool wire_ok = true;
    {
        Spans::Scope s(spans, "sweep.wire");
        out.add("sweep.wire_roundtrip_ns",
                nsPerOp(20000, reps, [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i) {
                        const auto bytes = serializeRunResult(res);
                        RunResult back;
                        wire_ok &= deserializeRunResult(
                            bytes.data(), bytes.size(), back);
                    }
                }));
    }
    RunResult back;
    wire_ok &= deserializeRunResult(ref.data(), ref.size(), back) &&
               serializeRunResult(back) == ref;

    {
        // Two fibers ping-ponging through the scheduler.
        Spans::Scope s(spans, "ult.switch");
        std::vector<double> v;
        for (int r = 0; r < reps; ++r) {
            Scheduler sched;
            const std::uint64_t yields = 200000;
            for (int f = 0; f < 2; ++f)
                sched.spawn([&sched, yields] {
                    for (std::uint64_t i = 0; i < yields; ++i)
                        sched.yield();
                });
            const double t0 = nowNs();
            sched.run();
            v.push_back((nowNs() - t0) / double(sched.switches()));
        }
        out.add("ult.switch_ns", median(v));
    }
    {
        Spans::Scope s(spans, "ult.spawn");
        out.add("ult.spawn_ns", nsPerOp(1000, reps, [](std::uint64_t n) {
                    Scheduler sched;
                    for (std::uint64_t i = 0; i < n; ++i)
                        sched.spawn([] {});
                    sched.run();
                }));
    }

    {
        Spans::Scope s(spans, "queue.spsc");
        SpscRing<RequestDescriptor> ring(256);
        RoleGuard prod(ring.producerRole);
        RoleGuard cons(ring.consumerRole);
        RequestDescriptor d = RequestDescriptor::read(64, 128), got;
        out.add("queue.spsc_ns", nsPerOp(1000000, reps, [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i) {
                        d.hostAddr = i;
                        ring.tryPush(d);
                        ring.tryPop(got);
                    }
                }));
        // Push-only (descriptor enqueue) and pop-only (completion
        // reap) halves, in ring-sized batches.
        const std::size_t batch = ring.capacity();
        std::vector<double> push_v, pop_v;
        for (int r = 0; r < reps; ++r) {
            double push_ns = 0.0, pop_ns = 0.0;
            for (int b = 0; b < 2000; ++b) {
                const double t0 = nowNs();
                for (std::size_t i = 0; i < batch; ++i)
                    ring.tryPush(d);
                const double t1 = nowNs();
                for (std::size_t i = 0; i < batch; ++i)
                    ring.tryPop(got);
                push_ns += t1 - t0;
                pop_ns += nowNs() - t1;
            }
            push_v.push_back(push_ns / (2000.0 * double(batch)));
            pop_v.push_back(pop_ns / (2000.0 * double(batch)));
        }
        out.add("queue.enqueue_ns", median(push_v));
        out.add("queue.completion_ns", median(pop_v));
        out.add("queue.poll_ns", nsPerOp(1000000, reps, [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i)
                        ring.tryPop(got);
                }));
    }
    {
        Spans::Scope s(spans, "queue.xthread");
        std::vector<double> v;
        for (int r = 0; r < reps; ++r) {
            SpscRing<std::uint64_t> ring(1024);
            const std::uint64_t n = 2000000;
            std::uint64_t sum = 0;
            const double t0 = nowNs();
            std::thread producer([&ring, n] {
                RoleGuard prod(ring.producerRole);
                for (std::uint64_t i = 0; i < n;)
                    if (ring.tryPush(i))
                        ++i;
            });
            {
                RoleGuard cons(ring.consumerRole);
                std::uint64_t item = 0;
                for (std::uint64_t i = 0; i < n;)
                    if (ring.tryPop(item)) {
                        sum += item;
                        ++i;
                    }
            }
            producer.join();
            v.push_back(double(n) / ((nowNs() - t0) * 1e-3));
            wire_ok &= sum == n * (n - 1) / 2;
        }
        out.add("queue.spsc_xthread_mops", median(v));
    }
    {
        Spans::Scope s(spans, "access.doorbell");
        Runtime::Config rc;
        rc.mechanism = Mechanism::SwQueue;
        rc.deterministicDevice = true;
        Runtime rt(std::vector<std::uint8_t>(1 << 16), rc);
        EmulatedDevice *dev = rt.emulatedDevice();
        const std::size_t pair = rt.queuePairIndex();
        out.add("access.doorbell_ns",
                nsPerOp(1000000, reps, [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i)
                        dev->doorbell(pair);
                }));
    }

    // Application trace capture at fig10's sizes.
    AppWorkloadParams params;
    params.bfsScale = 13;
    params.bloomKeys = 30000;
    params.bloomQueries = 20000;
    params.kvItems = 20000;
    params.kvQueries = 10000;
    const std::pair<AppKind, const char *> apps[] = {
        {AppKind::Bfs, "bfs"}, {AppKind::Bloom, "bloom"},
        {AppKind::Memcached, "kv"}};
    std::vector<std::string> app_rows;
    for (const auto &[kind, name] : apps) {
        std::vector<double> v;
        for (int r = 0; r < 3; ++r) {
            Spans::Scope s(spans, std::string("apps.trace.") + name);
            const double t0 = nowNs();
            const AppRunOutcome o = runAndTrace(kind, params);
            v.push_back((nowNs() - t0) * 1e-9);
            if (r == 0)
                app_rows.push_back(quote(csprintf(
                    "%s operations=%llu checksum=%016llx groups=%zu",
                    name, (unsigned long long)o.operations,
                    (unsigned long long)o.checksum, o.trace.size())));
        }
        out.add(std::string("apps.trace_s.") + name, median(v));
    }
    out.raw("app_rows", jsonArray(app_rows));

    // Trace layer: the same point with and without a trace sink; the
    // traced result must equal the untraced one.
    {
        std::vector<double> off, on;
        bool same = true;
        const SystemConfig tcfg = wcfg;
        for (int r = 0; r < 3; ++r) {
            {
                Spans::Scope s(spans, "core.untraced_point");
                const double t0 = nowNs();
                const RunResult a = runSystem(tcfg);
                off.push_back(nowNs() - t0);
                same &= serializeRunResult(a) == ref;
            }
            {
                Spans::Scope s(spans, "trace.point");
                auto buf = std::make_unique<trace::TraceBuffer>();
                const double t0 = nowNs();
                SimSystem sys(tcfg);
                sys.enableTracing(*buf, tickPerUs);
                trace::setSink(buf.get());
                RunResult b = sys.run();
                trace::setSink(nullptr);
                on.push_back(nowNs() - t0);
                // The occupancy sampler adds events; every other field
                // must be unchanged by tracing.
                b.kernelEvents = res.kernelEvents;
                same &= serializeRunResult(b) == ref;
            }
        }
        out.add("trace.overhead_frac", median(on) / median(off) - 1.0);
        out.add("trace_same", same ? 1.0 : 0.0);
    }
    out.add("wire_ok", wire_ok ? 1.0 : 0.0);
    out.raw("spans", spans.json());
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    const Args args(argc, argv);
    if (mode == "model")
        return modelMode(args);
    if (mode == "chase")
        return chaseMode(args);
    if (mode == "ledger")
        return ledgerMode();
    if (mode == "probe") {
        std::printf("{\"probe_s\": %s}\n", num(probeSeconds()).c_str());
        return 0;
    }
    std::fprintf(stderr,
                 "usage: kmubench_driver model|chase|ledger|probe "
                 "key=value...\n");
    return 2;
}
