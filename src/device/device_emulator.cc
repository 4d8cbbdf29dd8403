#include "device/device_emulator.hh"

#include "trace/trace.hh"

namespace kmu
{

DeviceEmulator::DeviceEmulator(std::string name, EventQueue &queue,
                               DeviceParams params, PcieLink &pcie,
                               std::uint32_t num_cores,
                               StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      requests(stats(), "requests", "read-request TLPs received"),
      replayMatches(stats(), "replay_matches",
                    "requests matched in a replay window"),
      replayMisses(stats(), "replay_misses",
                   "spurious requests served by the on-demand module"),
      responsesSent(stats(), "responses_sent",
                    "completion TLPs transmitted"),
      writesReceived(stats(), "writes_received",
                     "posted line-write TLPs absorbed"),
      cfg(params), link(pcie)
{
    replayModules.resize(num_cores);
}

void
DeviceEmulator::setReplaySource(CoreId core,
                                ReplayWindow::SequenceSource src)
{
    kmuAssert(core < replayModules.size(),
              "replay source for unknown core %u", core);
    replayModules[core] = std::make_unique<ReplayWindow>(
        std::move(src), cfg.replayWindowSize);
}

void
DeviceEmulator::hostWrite(CoreId core, Addr addr)
{
    (void)addr;
    // Posted write: 64-byte payload TLP, absorbed at the device.
    link.send(LinkDir::ToDevice, cacheLineSize, 0, [this, core]() {
        ++writesReceived;
        trace::instant(trace::Kind::DevWrite, writesReceived.value(),
                       std::uint16_t(traceLaneBase + core));
    });
}

Tick
DeviceEmulator::deviceReceive(CoreId core, Addr addr)
{
    kmuAssert(core < replayModules.size(),
              "request from unknown core %u", core);
    ++requests;
    const std::uint64_t span = requests.value();
    const std::uint16_t lane = std::uint16_t(traceLaneBase + core);
    trace::begin(trace::Kind::DevService, span, lane);

    // Replay lookup; spurious requests pay the on-demand path.
    Tick service = cfg.holdTime();
    ReplayWindow *replay = replayModules[core].get();
    if (replay) {
        if (replay->lookup(lineAlign(addr)) == ReplayWindow::Result::Miss) {
            ++replayMisses;
            trace::instant(trace::Kind::DevReplayMiss, span, lane);
            service += cfg.onDemandLatency;
        } else {
            ++replayMatches;
            trace::instant(trace::Kind::DevReplayMatch, span, lane);
        }
    } else {
        ++replayMatches; // live mode: stream always pre-loaded
        trace::instant(trace::Kind::DevReplayMatch, span, lane);
    }

    return service;
}

void
DeviceEmulator::respond(std::uint64_t span, std::uint16_t lane)
{
    ++responsesSent;
    trace::end(trace::Kind::DevService, span, lane);
}

} // namespace kmu
