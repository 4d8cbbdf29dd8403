#include "access/runtime.hh"

#include "access/mapped_engine.hh"
#include "access/sw_queue_engine.hh"
#include "common/logging.hh"

namespace kmu
{

Runtime::Runtime(std::vector<std::uint8_t> device_image, Config config)
    : cfg(config), imageBytes(device_image.size()),
      governor(config.governor)
{
    kmuAssert(imageBytes >= cacheLineSize,
              "device image must hold at least one line");

    switch (cfg.mechanism) {
      case Mechanism::OnDemand:
      case Mechanism::Prefetch:
        mappedRegion = std::move(device_image);
        accessEngine = std::make_unique<MappedEngine>(
            cfg.mechanism, mappedRegion.data(), imageBytes, sched,
            &governor, cfg.retry);
        break;
      case Mechanism::SwQueue: {
        kmuAssert(cfg.shards >= 1 && cfg.shards <= topo::maxShards,
                  "shard count %u out of [1, %u]", cfg.shards,
                  topo::maxShards);
        EmulatedDevice::Config dev_cfg;
        dev_cfg.latency = cfg.deviceLatency;
        dev_cfg.queueDepth = cfg.queueDepth;
        dev_cfg.manual = cfg.deterministicDevice;
        device = std::make_unique<EmulatedDevice>(
            std::move(device_image), dev_cfg);
        // One queue pair per shard; contiguous indices starting at
        // pairIndex (shard s = pairIndex + s).
        std::vector<std::size_t> pair_list;
        pair_list.reserve(cfg.shards);
        for (std::uint32_t s = 0; s < cfg.shards; ++s)
            pair_list.push_back(device->addQueuePair());
        pairIndex = pair_list.front();
        if (cfg.health.mode != health::Mode::Off)
            healthCtrl = std::make_unique<health::RecoveryController>(
                cfg.health, cfg.shards);
        accessEngine = std::make_unique<SwQueueEngine>(
            sched, *device, std::move(pair_list), cfg.interleave,
            &governor, cfg.retry, healthCtrl.get());
        break;
      }
    }
    registerGauges();
}

void
Runtime::registerGauges()
{
    const auto gauge = [this](const char *name, const char *desc,
                              Gauge::Source src) {
        gauges.push_back(std::make_unique<Gauge>(
            statGroup, name, desc, std::move(src)));
    };
    AccessEngine *eng = accessEngine.get();
    gauge("retries", "accesses re-issued by the watchdog",
          [eng] { return eng->recovery().retries; });
    gauge("timeouts", "watchdog deadline expirations",
          [eng] { return eng->recovery().timeouts; });
    gauge("crc_failures", "payload CRC mismatches",
          [eng] { return eng->recovery().crcFailures; });
    gauge("stale_completions", "stale/duplicate completions filtered",
          [eng] { return eng->recovery().staleCompletions; });
    gauge("recovery_doorbells", "watchdog-forced doorbells",
          [eng] { return eng->recovery().recoveryDoorbells; });
    gauge("deadline_errors", "requests failed at their deadline",
          [eng] { return eng->recovery().deadlineErrors; });
    gauge("failovers", "requests re-routed off their natural shard",
          [eng] { return eng->recovery().failovers; });
    const fault::DegradationGovernor *gov = &governor;
    gauge("governor_degradations", "governor Normal->Degraded flips",
          [gov] { return gov->degradations(); });
    gauge("governor_recoveries", "governor Degraded->Normal flips",
          [gov] { return gov->recoveries(); });
    if (healthCtrl) {
        const health::RecoveryController *hc = healthCtrl.get();
        gauge("health_degradations",
              "shard Healthy->Degraded transitions",
              [hc] { return hc->counters().degradations; });
        gauge("health_quarantines",
              "shard Degraded->Quarantined transitions",
              [hc] { return hc->counters().quarantines; });
        gauge("health_recoveries",
              "shard Degraded->Healthy transitions",
              [hc] { return hc->counters().recoveries; });
        gauge("health_probes", "canary requests routed to "
              "quarantined shards",
              [hc] { return hc->counters().probes; });
        gauge("health_failovers",
              "controller-chosen sibling re-routes",
              [hc] { return hc->counters().failovers; });
    }
}

Runtime::~Runtime() = default;

const std::uint8_t *
Runtime::deviceImage() const
{
    return device ? device->contents() : mappedRegion.data();
}

void
Runtime::spawnWorker(Worker worker, std::size_t stack_bytes)
{
    kmuAssert(worker != nullptr, "null worker");
    sched.spawn([this, worker = std::move(worker)]() {
        worker(*accessEngine);
    }, stack_bytes);
}

void
Runtime::run()
{
    RoleGuard host(hostRole); // calling thread is the host side
    if (device && !device->running())
        device->start();
    sched.run();
    // Manual-mode devices are never "running" but still need their
    // drain pass so late completions land before teardown.
    if (device && (device->manualMode() || device->running()))
        device->stop();
}

} // namespace kmu
