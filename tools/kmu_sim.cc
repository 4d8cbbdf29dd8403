/**
 * @file
 * kmu_sim — command-line front end for the timing model.
 *
 * Explore any configuration without writing code:
 *
 *   kmu_sim mechanism=prefetch threads=10 latency_us=1
 *   kmu_sim mechanism=swqueue cores=8 threads=24 stats=1
 *   kmu_sim mechanism=ondemand smt=2 work=100 batch=4
 *
 * Prints the run's headline metrics, the plan-matched DRAM-baseline
 * normalization, and (with stats=1) the full statistics tree of
 * every component in the modelled system.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/sim_system.hh"
#include "tool_args.hh"
#include "trace/trace.hh"

using namespace kmu;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: kmu_sim [key=value ...]\n"
        "  mechanism=ondemand|prefetch|swqueue   (prefetch)\n"
        "  backing=dram|device                   (device)\n"
        "  attach=pcie|membus  device attach point (pcie)\n"
        "  cores=N            physical cores     (1)\n"
        "  threads=N          user threads/core  (1)\n"
        "  smt=N              SMT contexts, on-demand only (1)\n"
        "  latency_us=F       device latency     (1)\n"
        "  work=N             work instrs/access (250)\n"
        "  batch=N            reads/iteration, 1-16 (1)\n"
        "  write_frac=F       posted-write share (0)\n"
        "  lfb=N              LFB entries/core   (10)\n"
        "  chipq=N            chip PCIe queue    (14)\n"
        "  shards=N           device shards      (1)\n"
        "  interleave=cacheline|page  shard interleave (cacheline)\n"
        "  chipq_policy=replicated|partitioned  per-shard chip-queue "
        "slice (replicated)\n"
        "  ctx_ns=N           context switch     (50)\n"
        "  measure_us=N       measured window    (600)\n"
        "  stats=0|1          dump component stats (0)\n"
        "  csv=0|1            machine-readable one-row CSV (0)\n"
        "  trace=FILE         write a binary trace (see kmu_trace)\n"
        "  trace_period_us=F  occupancy sample period (1)\n"
        "serving mode (open-loop request arrivals, src/serve):\n"
        "  arrival=off|poisson|bursty  arrival process (off)\n"
        "  lambda=F           offered load, requests/us (1)\n"
        "  zipf=F             key popularity skew, [0,1) (0)\n"
        "  keys=N             keyspace size      (1048576)\n"
        "  value_lines=N      cache lines per value, 1-16 (1)\n"
        "  clients=N          client cap, 0=unbounded (0)\n"
        "  slo_us=F           per-request latency SLO (100)\n"
        "  duty=F             bursty ON fraction, (0,1] (0.5)\n"
        "  burst_period_us=F  bursty ON+OFF period (50)\n"
        "  serve_seed=N       arrival/popularity seed (1)\n");
    std::exit(1);
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value)
{
    toolargs::reportBadValue("kmu_sim", key, value);
    usage();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    bool dump_stats = false;
    bool csv = false;
    std::string trace_path;
    Tick trace_period = tickPerUs;

    for (int i = 1; i < argc; ++i) {
        std::string key;
        std::string value;
        if (!toolargs::parseKv(argv[i], key, value)) {
            toolargs::reportBadArg("kmu_sim", argv[i]);
            usage();
        }

        std::uint64_t u64 = 0;
        double f64 = 0.0;
        if (key == "mechanism") {
            if (value == "ondemand")
                cfg.mechanism = Mechanism::OnDemand;
            else if (value == "prefetch")
                cfg.mechanism = Mechanism::Prefetch;
            else if (value == "swqueue")
                cfg.mechanism = Mechanism::SwQueue;
            else
                badValue(key, value);
        } else if (key == "backing") {
            if (value == "dram")
                cfg.backing = Backing::Dram;
            else if (value == "device")
                cfg.backing = Backing::Device;
            else
                badValue(key, value);
        } else if (key == "attach") {
            if (value == "pcie")
                cfg.attach = DeviceAttach::Pcie;
            else if (value == "membus")
                cfg.attach = DeviceAttach::MemoryBus;
            else
                badValue(key, value);
        } else if (key == "cores") {
            if (!toolargs::parseU32(value, cfg.numCores) ||
                cfg.numCores == 0)
                badValue(key, value);
        } else if (key == "threads") {
            if (!toolargs::parseU32(value, cfg.threadsPerCore) ||
                cfg.threadsPerCore == 0)
                badValue(key, value);
        } else if (key == "smt") {
            if (!toolargs::parseU32(value, cfg.smtContexts) ||
                cfg.smtContexts == 0)
                badValue(key, value);
        } else if (key == "latency_us") {
            if (!toolargs::parseF64(value, f64) || f64 < 0.0)
                badValue(key, value);
            cfg.device.latency = Tick(f64 * tickPerUs);
        } else if (key == "work") {
            if (!toolargs::parseU32(value, cfg.workCount))
                badValue(key, value);
        } else if (key == "batch") {
            if (!toolargs::parseU32(value, cfg.batch) ||
                cfg.batch == 0 || cfg.batch > AccessEngine::maxBatch)
                badValue(key, value);
        } else if (key == "write_frac") {
            if (!toolargs::parseF64(value, f64) || f64 < 0.0 ||
                f64 > 1.0)
                badValue(key, value);
            cfg.writeFraction = f64;
        } else if (key == "lfb") {
            if (!toolargs::parseU32(value, cfg.lfbPerCore) ||
                cfg.lfbPerCore == 0)
                badValue(key, value);
        } else if (key == "chipq") {
            if (!toolargs::parseU32(value, cfg.chipPcieQueue) ||
                cfg.chipPcieQueue == 0)
                badValue(key, value);
        } else if (key == "shards") {
            if (!toolargs::parseU32(value, cfg.topo.shards) ||
                cfg.topo.shards == 0 ||
                cfg.topo.shards > topo::maxShards)
                badValue(key, value);
        } else if (key == "interleave") {
            if (value == "cacheline")
                cfg.topo.interleave = topo::Interleave::CacheLine;
            else if (value == "page")
                cfg.topo.interleave = topo::Interleave::Page;
            else
                badValue(key, value);
        } else if (key == "chipq_policy") {
            if (value == "replicated")
                cfg.topo.chipQueuePolicy =
                    topo::ChipQueuePolicy::Replicated;
            else if (value == "partitioned")
                cfg.topo.chipQueuePolicy =
                    topo::ChipQueuePolicy::Partitioned;
            else
                badValue(key, value);
        } else if (key == "ctx_ns") {
            if (!toolargs::parseU64(value, u64))
                badValue(key, value);
            cfg.ctxSwitchCost = nanoseconds(u64);
        } else if (key == "measure_us") {
            if (!toolargs::parseU64(value, u64) || u64 == 0)
                badValue(key, value);
            cfg.measure = microseconds(u64);
        } else if (key == "stats") {
            if (!toolargs::parseFlag(value, dump_stats))
                badValue(key, value);
        } else if (key == "csv") {
            if (!toolargs::parseFlag(value, csv))
                badValue(key, value);
        } else if (key == "arrival") {
            if (value == "off")
                cfg.serve.arrival = serve::ArrivalKind::Off;
            else if (value == "poisson")
                cfg.serve.arrival = serve::ArrivalKind::Poisson;
            else if (value == "bursty")
                cfg.serve.arrival = serve::ArrivalKind::Bursty;
            else
                badValue(key, value);
        } else if (key == "lambda") {
            if (!toolargs::parseF64(value, f64) || f64 <= 0.0)
                badValue(key, value);
            cfg.serve.lambdaPerUs = f64;
        } else if (key == "zipf") {
            if (!toolargs::parseF64(value, f64) || f64 < 0.0 ||
                f64 >= 1.0)
                badValue(key, value);
            cfg.serve.zipfTheta = f64;
        } else if (key == "keys") {
            if (!toolargs::parseU64(value, cfg.serve.numKeys) ||
                cfg.serve.numKeys == 0)
                badValue(key, value);
        } else if (key == "value_lines") {
            if (!toolargs::parseU32(value, cfg.serve.valueLines) ||
                cfg.serve.valueLines == 0 ||
                cfg.serve.valueLines > AccessEngine::maxBatch)
                badValue(key, value);
        } else if (key == "clients") {
            if (!toolargs::parseU32(value, cfg.serve.clients))
                badValue(key, value);
        } else if (key == "slo_us") {
            if (!toolargs::parseF64(value, f64) || f64 <= 0.0)
                badValue(key, value);
            cfg.serve.sloUs = f64;
        } else if (key == "duty") {
            if (!toolargs::parseF64(value, f64) || f64 <= 0.0 ||
                f64 > 1.0)
                badValue(key, value);
            cfg.serve.duty = f64;
        } else if (key == "burst_period_us") {
            if (!toolargs::parseF64(value, f64) || f64 <= 0.0)
                badValue(key, value);
            cfg.serve.burstPeriodUs = f64;
        } else if (key == "serve_seed") {
            if (!toolargs::parseU64(value, cfg.serve.seed))
                badValue(key, value);
        } else if (key == "trace") {
            trace_path = value;
        } else if (key == "trace_period_us") {
            if (!toolargs::parseF64(value, f64) || f64 <= 0.0)
                badValue(key, value);
            trace_period = Tick(f64 * tickPerUs);
        } else {
            toolargs::reportUnknownKey("kmu_sim", key);
            usage();
        }
    }

    // keys and value_lines are each in range; their product must
    // also stay below the address tags.
    if (!cfg.serve.keyspaceFits()) {
        toolargs::reportBadValue("kmu_sim", "keys",
                                 std::to_string(cfg.serve.numKeys));
        std::fprintf(stderr, "kmu_sim: keys x value_lines must stay "
                             "below 2^42 cache lines\n");
        usage();
    }

    if (cfg.serve.enabled() && cfg.writeFraction != 0.0) {
        std::fprintf(stderr, "kmu_sim: serving mode models read "
                             "requests only (write_frac must be 0)\n");
        usage();
    }

    SimSystem system(cfg);

    // The sink is live only across the traced system's run: the
    // DRAM-baseline run below owns a second EventQueue whose records
    // must not leak into the trace.
    std::unique_ptr<trace::TraceBuffer> trace_buf;
    if (!trace_path.empty()) {
        trace_buf = std::make_unique<trace::TraceBuffer>();
        system.enableTracing(*trace_buf, trace_period);
        trace::setSink(trace_buf.get());
    }
    const RunResult res = system.run();
    trace::setSink(nullptr);
    if (trace_buf)
        trace_buf->writeFile(trace_path);

    const RunResult base = runSystem(baselineConfig(cfg));

    if (csv) {
        // Full-precision, locale-free output: byte-identical across
        // runs of the same configuration (the determinism_kmu_sim
        // ctest depends on this).
        // The base columns never change with serving off: the
        // determinism_kmu_sim and serving_differential ctests compare
        // this output byte-for-byte against committed expectations.
        std::printf(
            "mechanism,cores,threads,iterations,work_instrs,accesses,"
            "writes,work_ipc,normalized_ipc,mean_read_latency_ns,"
            "to_host_wire_gbs,to_host_useful_gbs,to_device_wire_gbs,"
            "chip_queue_peak,prefetches_queued,replay_misses,"
            "events_serviced");
        if (cfg.serve.enabled()) {
            std::printf(
                ",serve_offered,serve_completed,serve_slo_met,"
                "serve_inflight_peak,serve_p50_ns,serve_p99_ns,"
                "serve_p999_ns,serve_mean_ns,serve_goodput_per_us");
        }
        std::printf("\n");
        std::printf(
            "%s,%u,%u,%llu,%llu,%llu,%llu,%.17g,%.17g,%.17g,%.17g,"
            "%.17g,%.17g,%u,%llu,%llu,%llu",
            mechanismName(cfg.mechanism), cfg.numCores,
            cfg.threadsPerCore, (unsigned long long)res.iterations,
            (unsigned long long)res.workInstrs,
            (unsigned long long)res.accesses,
            (unsigned long long)res.writes, res.workIpc,
            normalizedWorkIpc(res, base), res.meanReadLatencyNs,
            res.toHostWireGBs, res.toHostUsefulGBs,
            res.toDeviceWireGBs, res.chipQueuePeak,
            (unsigned long long)res.prefetchesQueued,
            (unsigned long long)res.replayMisses,
            (unsigned long long)system.eventQueue().serviced());
        if (cfg.serve.enabled()) {
            std::printf(
                ",%llu,%llu,%llu,%llu,%.17g,%.17g,%.17g,%.17g,%.17g",
                (unsigned long long)res.serveOffered,
                (unsigned long long)res.serveCompleted,
                (unsigned long long)res.serveSloMet,
                (unsigned long long)res.serveInFlightPeak,
                res.serveP50Ns, res.serveP99Ns, res.serveP999Ns,
                res.serveMeanLatencyNs, res.serveGoodputPerUs);
        }
        std::printf("\n");
        if (dump_stats) {
            std::printf("\n--- component statistics ---\n");
            system.stats().dump(std::cout);
        }
        return 0;
    }

    std::printf("mechanism          %s (%s-backed)\n",
                mechanismName(cfg.mechanism),
                cfg.backing == Backing::Dram ? "DRAM" : "device");
    std::printf("cores x threads    %u x %u\n", cfg.numCores,
                cfg.threadsPerCore);
    std::printf("device latency     %.2f us\n",
                ticksToUs(cfg.device.latency));
    std::printf("iterations         %llu\n",
                (unsigned long long)res.iterations);
    std::printf("accesses/us        %.2f (%.1f%% writes)\n",
                res.accessesPerUs,
                res.accesses
                    ? 100.0 * double(res.writes) / double(res.accesses)
                    : 0.0);
    std::printf("work IPC           %.4f\n", res.workIpc);
    std::printf("normalized (DRAM)  %.4f\n",
                normalizedWorkIpc(res, base));
    std::printf("mean read latency  %.1f ns\n", res.meanReadLatencyNs);
    if (res.toHostWireGBs > 0.0) {
        std::printf("PCIe to-host       %.2f GB/s wire, %.2f GB/s "
                    "useful\n", res.toHostWireGBs,
                    res.toHostUsefulGBs);
    }
    if (res.chipQueuePeak > 0)
        std::printf("chip-queue peak    %u\n", res.chipQueuePeak);
    if (res.prefetchesQueued > 0) {
        std::printf("prefetches queued  %llu (LFB pressure)\n",
                    (unsigned long long)res.prefetchesQueued);
    }

    if (cfg.serve.enabled()) {
        std::printf("--- serving (open loop) ---\n");
        std::printf("offered            %llu requests "
                    "(lambda=%.3g/us, %s)\n",
                    (unsigned long long)res.serveOffered,
                    cfg.serve.lambdaPerUs,
                    cfg.serve.arrival == serve::ArrivalKind::Bursty
                        ? "bursty" : "poisson");
        std::printf("completed          %llu (peak in flight %llu)\n",
                    (unsigned long long)res.serveCompleted,
                    (unsigned long long)res.serveInFlightPeak);
        std::printf("latency p50/p99    %.2f / %.2f us "
                    "(p999 %.2f, mean %.2f)\n",
                    res.serveP50Ns / 1e3, res.serveP99Ns / 1e3,
                    res.serveP999Ns / 1e3,
                    res.serveMeanLatencyNs / 1e3);
        std::printf("goodput under SLO  %.3f req/us (SLO %.1f us, "
                    "%.1f%% of completions)\n",
                    res.serveGoodputPerUs, cfg.serve.sloUs,
                    res.serveCompleted
                        ? 100.0 * double(res.serveSloMet) /
                              double(res.serveCompleted)
                        : 0.0);
    }

    if (dump_stats) {
        std::printf("\n--- component statistics ---\n");
        system.stats().dump(std::cout);
    }
    return 0;
}
