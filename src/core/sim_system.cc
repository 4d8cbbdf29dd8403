#include "core/sim_system.hh"

#include <chrono>

#include <algorithm>

#include "core/on_demand_core.hh"
#include "core/prefetch_core.hh"
#include "core/sw_queue_core.hh"
#include "serve/serve_driver.hh"
#include "trace/occupancy_sampler.hh"
#include "trace/trace.hh"

namespace kmu
{

static_assert(serveLatencyBucketCount ==
                  serve::ServeDriver::latencyBuckets,
              "RunResult histogram shape must match the driver's");

namespace
{

/** Ring depth for the software queues: must absorb every thread's
 *  maximum batch simultaneously. */
constexpr std::size_t swQueueDepth = 4096;

} // anonymous namespace

SimSystem::SimSystem(SystemConfig config)
    : cfg(std::move(config)), root("system")
{
    kmuAssert(cfg.numCores >= 1, "need at least one core");
    kmuAssert(cfg.threadsPerCore >= 1, "need at least one thread");
    kmuAssert(cfg.batch >= 1 && cfg.batch <= AccessEngine::maxBatch,
              "batch out of range");
    kmuAssert(cfg.topo.shards >= 1 &&
                  cfg.topo.shards <= topo::maxShards,
              "shard count %u out of [1, %u]", cfg.topo.shards,
              topo::maxShards);

    dram = std::make_unique<DramModel>("dram", eq, cfg.dram, &root);
    readLatency = std::make_unique<Average>(
        root, "read_latency_ns", "issue-to-fill read latency");
    readLatencyLog = std::make_unique<LogHistogram>(
        root, "read_latency_log_ns",
        "issue-to-fill read latency, log2 ns buckets", 1.0, 24);

    // The serving hooks must be installed into cfg before the cores
    // are built: they capture cfg by reference but read the hooks on
    // every iteration, so ordering only matters for the assertions.
    if (cfg.serve.enabled())
        buildServing();

    if (cfg.mechanism == Mechanism::SwQueue) {
        kmuAssert(cfg.backing == Backing::Device,
                  "software queues target the device");
        buildSwQueue();
    } else {
        buildMemoryMapped();
    }
    buildChecker();
}

std::uint32_t
SimSystem::lanesPerCore() const
{
    return cfg.mechanism == Mechanism::OnDemand ? cfg.smtContexts
                                                : cfg.threadsPerCore;
}

void
SimSystem::buildServing()
{
    kmuAssert(!cfg.plan && !cfg.addressPlan,
              "serving mode owns the iteration and address plans");
    kmuAssert(cfg.writeFraction == 0.0,
              "serving mode models a read-only KV service");
    const std::uint32_t lanes = cfg.numCores * lanesPerCore();
    serving = std::make_unique<serve::ServeDriver>(cfg.serve, eq,
                                                   &root, lanes);
    serving->setMeasureStart(cfg.warmup);

    serve::ServeDriver *sd = serving.get();
    const std::uint32_t lpc = lanesPerCore();
    const IterationPlan request_plan{cfg.serve.valueLines,
                                     cfg.workCount};
    cfg.plan = [request_plan](CoreId, ThreadId, std::uint64_t) {
        return request_plan;
    };
    cfg.addressPlan = [sd, lpc](CoreId c, ThreadId t,
                                std::uint64_t iter,
                                std::uint32_t slot) {
        return sd->addressFor(c * lpc + t, iter, slot);
    };
    cfg.admitGate = [sd, lpc](CoreId c, ThreadId t,
                              std::uint64_t iter,
                              std::function<void()> wake) {
        return sd->admit(c * lpc + t, iter, std::move(wake));
    };
    cfg.onRetire = [sd, lpc](CoreId c, ThreadId t,
                             std::uint64_t iter) {
        sd->retire(c * lpc + t, iter);
    };
}

SimSystem::~SimSystem() = default;

UncoreQueue *
SimSystem::chipQueue(std::size_t s)
{
    return s < chipQueues.size() ? chipQueues[s].get() : nullptr;
}

DeviceEmulator *
SimSystem::deviceEmulator(std::size_t s)
{
    return s < devices.size() ? devices[s].get() : nullptr;
}

void
SimSystem::buildMemoryMapped()
{
    const bool to_device = cfg.backing == Backing::Device;
    const bool membus =
        to_device && cfg.attach == DeviceAttach::MemoryBus;
    const std::uint32_t shards = cfg.topo.shards;
    if (to_device && !membus) {
        // One link + chip queue + device emulator per shard, built
        // in the single-device order so a shards=1 system registers
        // the exact pre-sharding stat tree.
        for (std::uint32_t s = 0; s < shards; ++s) {
            links.push_back(std::make_unique<PcieLink>(
                topo::shardName("pcie", s, shards), eq, cfg.pcie,
                &root));
            chipQueues.push_back(std::make_unique<UncoreQueue>(
                topo::shardName("chip_pcie_queue", s, shards), eq,
                topo::chipQueueSlice(cfg.chipPcieQueue, cfg.topo),
                &root));
            devices.push_back(std::make_unique<DeviceEmulator>(
                topo::shardName("device", s, shards), eq, cfg.device,
                *links.back(), cfg.numCores, &root));
        }
    }
    if (membus) {
        // Memory-bus attach: the device answers like a slow DIMM
        // behind the chip's deep DRAM-path queue; the configured
        // latency already covers the on-bus round trip. The memory
        // interconnect has no per-slot links to multiply, so the
        // attach stays single-shard.
        kmuAssert(shards == 1,
                  "memory-bus attach models a single device");
        chipQueues.push_back(std::make_unique<UncoreQueue>(
            "chip_membus_queue", eq, cfg.chipDramQueue, &root));
    }

    // Each issued line's continuation rides the path in the event
    // arena and ends in the issuing core's lineArrived().
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        CoreBase::IssueLine issue;
        if (membus) {
            issue = [this, c](Addr line) {
                const Tick issued = eq.curTick();
                chipQueues[0]->acquire([this, c, line, issued]() {
                    eq.scheduleLambda(
                        eq.curTick() + cfg.device.latency,
                        [this, c, line, issued]() {
                            chipQueues[0]->release();
                            sampleReadLatency(
                                ticksToNs(eq.curTick() - issued));
                            cores[c]->lineArrived(line);
                        },
                        EventPriority::DeviceResponse, "membus.fill");
                });
            };
        } else if (to_device) {
            issue = [this, c](Addr line) {
                const Tick issued = eq.curTick();
                const std::uint32_t s = topo::shardOf(line, cfg.topo);
                chipQueues[s]->acquire([this, c, s, line, issued]() {
                    devices[s]->hostRead(
                        c, line, [this, c, s, line, issued]() {
                            chipQueues[s]->release();
                            sampleReadLatency(
                                ticksToNs(eq.curTick() - issued));
                            cores[c]->lineArrived(line);
                        });
                });
            };
        } else {
            issue = [this, c](Addr line) {
                const Tick issued = eq.curTick();
                dram->access(line, [this, c, line, issued]() {
                    sampleReadLatency(ticksToNs(eq.curTick() - issued));
                    cores[c]->lineArrived(line);
                });
            };
        }

        const std::string name = csprintf("core%u", c);
        if (cfg.mechanism == Mechanism::OnDemand) {
            cores.push_back(std::make_unique<OnDemandCore>(
                name, eq, c, cfg, std::move(issue), &root));
        } else {
            cores.push_back(std::make_unique<PrefetchCore>(
                name, eq, c, cfg, std::move(issue), &root));
        }

        if (to_device && !membus) {
            cores.back()->setWriteHook([this, c](Addr line) {
                devices[topo::shardOf(line, cfg.topo)]->hostWrite(
                    c, line);
            });
        }
        // Memory-bus-attached and DRAM-backed writes are absorbed by
        // the write buffers / bus posting: no hook needed.
    }
}

void
SimSystem::buildSwQueue()
{
    const std::uint32_t shards = cfg.topo.shards;
    for (std::uint32_t s = 0; s < shards; ++s) {
        links.push_back(std::make_unique<PcieLink>(
            topo::shardName("pcie", s, shards), eq, cfg.pcie, &root));
    }

    // Each core keeps one queue pair + request fetcher per shard
    // (core-major layout), so a shard's descriptor traffic rides its
    // own link and doorbell register.
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        for (std::uint32_t s = 0; s < shards; ++s) {
            queuePairs.push_back(
                std::make_unique<SwQueuePair>(swQueueDepth));
            fetchers.push_back(std::make_unique<RequestFetcher>(
                topo::shardName(csprintf("fetcher%u", c), s, shards),
                eq, c, cfg.device, *queuePairs.back(), *links[s],
                cfg.dram.latency,
                [this, c](const CompletionDescriptor &) {
                    static_cast<SwQueueCore &>(*cores[c])
                        .onCompletionPosted();
                },
                &root));
        }
    }

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        std::vector<SwQueuePair *> pairs;
        std::vector<SwQueueCore::RingDoorbell> rings;
        for (std::uint32_t s = 0; s < shards; ++s) {
            pairs.push_back(queuePairs[c * shards + s].get());
            RequestFetcher *fetch = fetchers[c * shards + s].get();
            rings.push_back([fetch]() { fetch->ringDoorbell(); });
        }
        cores.push_back(std::make_unique<SwQueueCore>(
            csprintf("core%u", c), eq, c, cfg, std::move(pairs),
            std::move(rings), &root));
    }
}

void
SimSystem::buildChecker()
{
    checker = std::make_unique<SimChecker>("checker", eq, tickPerUs,
                                           &root);

    // Global conservation laws that no single transition sees: stat
    // counters must reconcile with the live structure sizes they
    // shadow, and no occupancy may exceed its hardware capacity.
    checker->addCheck("lfb_conservation", [this]() {
        for (auto &core : cores) {
            Lfb &lfb = core->lfb();
            KMU_INVARIANT(lfb.inUse() <= lfb.capacity(),
                          "%s holds %u entries, capacity %u",
                          lfb.name().c_str(), lfb.inUse(),
                          lfb.capacity());
            KMU_MODEL_CHECK(
                lfb.allocs.value() - lfb.fills.value() == lfb.inUse(),
                "%s in-flight %u != allocated %llu - filled %llu",
                lfb.name().c_str(), lfb.inUse(),
                (unsigned long long)lfb.allocs.value(),
                (unsigned long long)lfb.fills.value());
        }
    });
    checker->addCheck("chip_queue_conservation", [this]() {
        for (auto &chip : chipQueues) {
            KMU_INVARIANT(chip->inUse() <= chip->capacity(),
                          "%s holds %u slots, capacity %u",
                          chip->name().c_str(), chip->inUse(),
                          chip->capacity());
            KMU_MODEL_CHECK(
                chip->entries.value() - chip->totalReleases() ==
                    chip->inUse(),
                "%s slots in use %u != granted %llu - released %llu",
                chip->name().c_str(), chip->inUse(),
                (unsigned long long)chip->entries.value(),
                (unsigned long long)chip->totalReleases());
            KMU_MODEL_CHECK(chip->waiting() == 0 || chip->full(),
                            "%zu waiters stalled on a non-full %s",
                            chip->waiting(), chip->name().c_str());
        }
    });
    checker->addCheck("link_goodput", [this]() {
        for (auto &lnk : links) {
            for (LinkDir dir : {LinkDir::ToDevice, LinkDir::ToHost}) {
                KMU_MODEL_CHECK(
                    lnk->usefulBytes(dir) <= lnk->wireBytes(dir),
                    "%s useful bytes %llu exceed wire bytes %llu",
                    lnk->name().c_str(),
                    (unsigned long long)lnk->usefulBytes(dir),
                    (unsigned long long)lnk->wireBytes(dir));
            }
        }
    });
    checker->addCheck("sw_queue_conservation", [this]() {
        for (auto &pair : queuePairs) {
            KMU_MODEL_CHECK(
                pair->requestRing().totalPops() <=
                    pair->requestRing().totalPushes(),
                "request ring popped more than was pushed");
            KMU_MODEL_CHECK(
                pair->completionRing().totalPops() <=
                    pair->completionRing().totalPushes(),
                "completion ring popped more than was pushed");
        }
    });
}

void
SimSystem::sampleReadLatency(double ns)
{
    readLatency->sample(ns);
    readLatencyLog->sample(ns);
}

void
SimSystem::enableTracing(trace::TraceBuffer &buf, Tick samplePeriod)
{
    kmuAssert(!ran, "enable tracing before run()");
    buf.setClock([this] { return eq.curTick(); });

    // Trace-lane layout: one lane per core (LFB, shard-0 fetcher,
    // and shard 0's per-core device service engine share it), then a
    // block of three lanes per shard for the shared components (chip
    // queue, link to-device, link to-host). With one shard this is
    // the exact pre-sharding layout; extra shards append their lane
    // blocks after shard 0's, and their per-core device/fetcher
    // spans move to dedicated lane blocks after the link lanes so
    // span ids never collide on a lane.
    const std::uint16_t n = std::uint16_t(cores.size());
    const std::uint32_t shards = cfg.topo.shards;
    const std::uint16_t dramLane = n;
    const auto chipLaneOf = [n](std::uint32_t s) {
        return std::uint16_t(n + 1 + 3 * s);
    };
    const auto linkLaneOf = [n](std::uint32_t s) {
        return std::uint16_t(n + 2 + 3 * s);
    };
    // First lane of shard s's per-core block (shards > 1 only).
    const auto deviceLaneOf = [n, shards](std::uint32_t s) {
        return std::uint16_t(n + 1 + 3 * shards + s * n);
    };

    for (std::uint16_t c = 0; c < n; ++c) {
        cores[c]->setTraceTrack(c);
        cores[c]->lfb().setTraceTrack(c);
        buf.registerName(trace::trackNameKey(c),
                         csprintf("core%u", unsigned(c)));
    }
    for (std::size_t i = 0; i < fetchers.size(); ++i) {
        const auto c = std::uint32_t(i / shards);
        const auto s = std::uint32_t(i % shards);
        const std::uint16_t lane =
            shards <= 1 ? std::uint16_t(c)
                        : std::uint16_t(deviceLaneOf(s) + c);
        fetchers[i]->setTraceTrack(lane);
        if (shards > 1)
            buf.registerName(trace::trackNameKey(lane),
                             fetchers[i]->name());
    }
    for (std::size_t s = 0; s < devices.size(); ++s) {
        if (shards <= 1)
            break; // device spans share the core lanes
        devices[s]->setTraceLaneBase(deviceLaneOf(std::uint32_t(s)));
        for (std::uint16_t c = 0; c < n; ++c) {
            const auto lane = std::uint16_t(
                deviceLaneOf(std::uint32_t(s)) + c);
            buf.registerName(trace::trackNameKey(lane),
                             csprintf("%s.core%u",
                                      devices[s]->name().c_str(),
                                      unsigned(c)));
        }
    }

    dram->setTraceTrack(dramLane);
    buf.registerName(trace::trackNameKey(dramLane), "dram");
    for (std::size_t s = 0; s < chipQueues.size(); ++s) {
        const std::uint16_t lane = chipLaneOf(std::uint32_t(s));
        chipQueues[s]->setTraceTrack(lane);
        buf.registerName(trace::trackNameKey(lane),
                         chipQueues[s]->name());
    }
    for (std::size_t s = 0; s < links.size(); ++s) {
        const std::uint16_t lane = linkLaneOf(std::uint32_t(s));
        links[s]->setTraceTrack(lane);
        const std::string base =
            topo::shardName("pcie", std::uint32_t(s), shards);
        buf.registerName(trace::trackNameKey(lane),
                         base + ".to_device");
        buf.registerName(trace::trackNameKey(std::uint16_t(lane + 1)),
                         base + ".to_host");
    }

    // Request spans get a lane of their own after everything else
    // (allocated only in serving mode, so the closed-loop lane
    // layout is untouched).
    if (serving) {
        const auto serveLane = std::uint16_t(
            n + 1 + 3 * shards + (shards > 1 ? shards * n : 0));
        serving->setTraceLane(serveLane);
        buf.registerName(trace::trackNameKey(serveLane), "serve");
    }

    // Periodic occupancy timeline: per-core LFB and software rings,
    // plus each shard's chip-level queue.
    sampler = std::make_unique<trace::OccupancySampler>(eq,
                                                        samplePeriod);
    for (std::uint16_t c = 0; c < n; ++c) {
        Lfb &lfb = cores[c]->lfb();
        sampler->addProbe(csprintf("lfb%u.in_use", unsigned(c)), c,
                          [&lfb] { return lfb.inUse(); });
    }
    for (std::size_t i = 0; i < queuePairs.size(); ++i) {
        const auto c = std::uint32_t(i / shards);
        const auto s = std::uint32_t(i % shards);
        const std::string base = topo::shardName(
            csprintf("swq%u", c), s, shards);
        SwQueuePair *pair = queuePairs[i].get();
        sampler->addProbe(base + ".requests", std::uint16_t(c),
                          [pair] {
                              return std::uint32_t(
                                  pair->pendingRequests());
                          });
        sampler->addProbe(base + ".completions", std::uint16_t(c),
                          [pair] {
                              return std::uint32_t(
                                  pair->pendingCompletions());
                          });
    }
    for (std::size_t s = 0; s < chipQueues.size(); ++s) {
        UncoreQueue *chip = chipQueues[s].get();
        sampler->addProbe(chip->name() + ".in_use",
                          chipLaneOf(std::uint32_t(s)),
                          [chip] { return chip->inUse(); });
    }
    sampler->start();
}

RunResult
SimSystem::run()
{
    kmuAssert(!ran, "SimSystem::run is single-shot");
    ran = true;

    checker->start();
    if (serving)
        serving->start();
    for (auto &core : cores) {
        core->setLatencySampler(
            [this](double ns) { sampleReadLatency(ns); });
        core->start();
    }

    // Warmup window (kernel-timed along with the measurement
    // window: the events/sec self-measurement covers every event
    // this run services). The wall-clock read is measurement-only:
    // it feeds the bench trajectory, never the model, a CSV, or the
    // serialized RunResult.
    // kmu-analyze: allow(wall-clock)
    const auto kernel0 = std::chrono::steady_clock::now();
    eq.run(cfg.warmup);

    struct Snapshot
    {
        std::uint64_t iters, work, accesses, writes;
    };
    std::vector<Snapshot> snaps;
    snaps.reserve(cores.size());
    for (auto &core : cores) {
        snaps.push_back(Snapshot{core->iterations(), core->workInstrs(),
                                 core->accessesDone(),
                                 core->writesDone()});
    }
    for (auto &lnk : links)
        lnk->resetCounters();

    // Measurement window.
    const Tick end = cfg.warmup + cfg.measure;
    eq.run(end);
    // kmu-analyze: allow(wall-clock)
    const auto kernel1 = std::chrono::steady_clock::now();
    const double kernelSecs =
        std::chrono::duration<double>(kernel1 - kernel0).count();

    RunResult res;
    res.elapsed = cfg.measure;
    res.kernelEvents = eq.serviced();
    res.kernelWallSeconds = kernelSecs;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        res.iterations += cores[i]->iterations() - snaps[i].iters;
        res.workInstrs += cores[i]->workInstrs() - snaps[i].work;
        res.accesses += cores[i]->accessesDone() - snaps[i].accesses;
        res.writes += cores[i]->writesDone() - snaps[i].writes;
    }

    const double cycles =
        double(res.elapsed) * cfg.coreFreqHz / double(tickPerSec);
    res.workIpc = cycles > 0 ? double(res.workInstrs) / cycles : 0.0;
    res.accessesPerUs =
        double(res.accesses) / ticksToUs(res.elapsed);

    if (!links.empty()) {
        const double secs = ticksToSec(res.elapsed);
        std::uint64_t to_host_wire = 0, to_host_useful = 0,
                      to_device_wire = 0;
        for (auto &lnk : links) {
            to_host_wire += lnk->wireBytes(LinkDir::ToHost);
            to_host_useful += lnk->usefulBytes(LinkDir::ToHost);
            to_device_wire += lnk->wireBytes(LinkDir::ToDevice);
        }
        res.toHostWireGBs = double(to_host_wire) / secs / 1e9;
        res.toHostUsefulGBs = double(to_host_useful) / secs / 1e9;
        res.toDeviceWireGBs = double(to_device_wire) / secs / 1e9;
    }
    res.meanReadLatencyNs = readLatency->mean();
    for (auto &chip : chipQueues)
        res.chipQueuePeak =
            std::max(res.chipQueuePeak, chip->peakOccupancy());
    for (auto &dev : devices)
        res.replayMisses += dev->replayMisses.value();

    // Per-shard request extremes (device side, warmup included):
    // equal min/max means the interleave balanced the traffic.
    res.shardCount = cfg.topo.shards;
    if (!devices.empty() || !fetchers.empty()) {
        const std::uint32_t shards = cfg.topo.shards;
        for (std::uint32_t s = 0; s < shards; ++s) {
            std::uint64_t reqs = 0;
            if (!devices.empty()) {
                reqs = devices[s]->requests.value();
            } else {
                for (CoreId c = 0; c < cfg.numCores; ++c)
                    reqs += fetchers[c * shards + s]
                                ->responses.value();
            }
            res.shardRequestsMin =
                s == 0 ? reqs : std::min(res.shardRequestsMin, reqs);
            res.shardRequestsMax =
                std::max(res.shardRequestsMax, reqs);
        }
    }

    if (serving) {
        res.serveOffered = serving->offered();
        res.serveCompleted = serving->completed();
        res.serveSloMet = serving->sloMet();
        res.serveInFlightPeak = serving->inFlightPeak();
        const LogHistogram &lat = serving->latencyLog();
        res.serveP50Ns = lat.quantile(0.50);
        res.serveP99Ns = lat.quantile(0.99);
        res.serveP999Ns = lat.quantile(0.999);
        res.serveMeanLatencyNs = lat.mean();
        res.serveGoodputPerUs =
            double(res.serveSloMet) / ticksToUs(res.elapsed);
        for (std::size_t i = 0; i < serveLatencyBucketCount; ++i)
            res.serveLatencyBuckets[i] = lat.bucketCount(i);
        res.serveLatencyUnderflow = lat.underflow();
        res.serveLatencyOverflow = lat.overflow();
    }

    for (auto &core : cores) {
        if (auto *pf = dynamic_cast<PrefetchCore *>(core.get()))
            res.prefetchesQueued += pf->prefetchesQueued.value();
    }
    if (cfg.l1Enabled) {
        for (auto &core : cores) {
            res.l1Hits += core->l1().hits.value();
            res.l1Misses += core->l1().misses.value();
        }
    }
    return res;
}

RunResult
runSystem(const SystemConfig &cfg)
{
    SimSystem system(cfg);
    return system.run();
}

SystemConfig
baselineConfig(const SystemConfig &cfg)
{
    SystemConfig base = cfg;
    base.mechanism = Mechanism::OnDemand;
    base.backing = Backing::Dram;
    base.numCores = 1;
    base.threadsPerCore = 1;
    base.smtContexts = 1; // the paper's hyperthreading-off baseline
    base.topo = topo::TopologyConfig{}; // no device, no shards
    // The normalization baseline is always the closed-loop replay:
    // serving measures latency against a load, not peak IPC.
    base.serve = serve::ServeConfig{};
    base.admitGate = nullptr;
    base.onRetire = nullptr;
    return base;
}

double
normalizedWorkIpc(const RunResult &result, const RunResult &baseline)
{
    kmuAssert(baseline.workIpc > 0.0, "degenerate baseline");
    return result.workIpc / baseline.workIpc;
}

double
normalizedWorkIpc(const SystemConfig &cfg)
{
    return normalizedWorkIpc(runSystem(cfg),
                             runSystem(baselineConfig(cfg)));
}

} // namespace kmu
