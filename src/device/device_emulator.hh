/**
 * @file
 * Timing model of the FPGA microsecond-latency device emulator
 * (memory-mapped interface; the paper's Fig. 1 without the request
 * fetchers, which live in request_fetcher.hh).
 *
 * Structure mirrors the hardware design:
 *  - a *request dispatcher* steers each incoming read-request TLP to
 *    the replay module of the issuing core (the address space is
 *    partitioned per core, since PCIe transactions carry no core id);
 *  - per-core *replay modules* match requests against the
 *    pre-recorded access stream via a ReplayWindow;
 *  - unmatched (spurious) requests fall through to the *on-demand
 *    module*, paying an extra on-board-DRAM access latency;
 *  - the *delay module* timestamps each request on arrival and emits
 *    the response completion so it reaches the host at the
 *    configured device latency.
 */

#ifndef KMU_DEVICE_DEVICE_EMULATOR_HH
#define KMU_DEVICE_DEVICE_EMULATOR_HH

#include <memory>
#include <utility>
#include <vector>

#include "device/device_params.hh"
#include "device/replay_window.hh"
#include "mem/pcie_link.hh"
#include "sim/sim_object.hh"

namespace kmu
{

class DeviceEmulator : public SimObject
{
  public:
    DeviceEmulator(std::string name, EventQueue &queue, DeviceParams params,
                   PcieLink &link, std::uint32_t num_cores,
                   StatGroup *stat_parent);

    const DeviceParams &params() const { return cfg; }

    /**
     * Install a pre-recorded access stream for @p core's replay
     * module (the paper's first-run recording). Without a source the
     * module runs in live mode: every request matches, which models
     * a perfectly pre-loaded replay stream.
     */
    void setReplaySource(CoreId core, ReplayWindow::SequenceSource src);

    /**
     * Host-side entry point of the memory-mapped path: transmits the
     * read-request TLP, waits out the emulated device latency, and
     * returns the cache-line completion; @p cb runs at the host when
     * the data arrives on-chip. The callable rides along inside each
     * hop's arena slot; no hop allocates.
     */
    template <typename F>
    void
    hostRead(CoreId core, Addr addr, F &&cb)
    {
        // Read-request TLP: header only (the request carries no
        // payload).
        link.send(LinkDir::ToDevice, 0, 0,
                  [this, core, addr, cb = std::forward<F>(cb)]() mutable {
                      serveRead(core, addr, std::move(cb));
                  });
    }

    /**
     * Host-side entry point for a posted line write: a 64-byte
     * write TLP travels to the device and is absorbed; no response
     * returns (the paper's future-work write path).
     */
    void hostWrite(CoreId core, Addr addr);

    /**
     * First trace lane of this device's per-core service engines:
     * lane base + core carries that core's DevService spans.
     * SimSystem leaves it 0 in single-shard systems (device spans
     * share the core lanes, the pre-sharding layout) and gives each
     * shard of a sharded topology its own lane block.
     */
    void setTraceLaneBase(std::uint16_t base) { traceLaneBase = base; }

    /** @{ Device-side statistics. */
    Counter requests;
    Counter replayMatches;
    Counter replayMisses;
    Counter responsesSent;
    Counter writesReceived;
    /** @} */

  private:
    /** Cached "<name>.delay": scheduled once per request. */
    const std::string delayName = name() + ".delay";

    /** Request dispatcher + replay + delay for one arrived read TLP;
     *  @p cb runs at the host when the completion arrives. */
    template <typename F>
    void
    serveRead(CoreId core, Addr addr, F &&cb)
    {
        const Tick service = deviceReceive(core, addr);
        const std::uint64_t span = requests.value();
        const std::uint16_t lane = std::uint16_t(traceLaneBase + core);
        // Delay module: the request was timestamped on arrival
        // (curTick); the response completion leaves after the
        // residual hold time.
        eventQueue().scheduleLambda(
            curTick() + service,
            [this, span, lane, cb = std::forward<F>(cb)]() mutable {
                respond(span, lane);
                if (!trace::active()) {
                    link.send(LinkDir::ToHost, cacheLineSize,
                              cacheLineSize, std::move(cb));
                    return;
                }
                link.send(LinkDir::ToHost, cacheLineSize, cacheLineSize,
                          [span, lane, cb = std::move(cb)]() mutable {
                              trace::instant(trace::Kind::Completion,
                                             span, lane);
                              cb();
                          });
            },
            EventPriority::Default, delayName);
    }

    /** Request dispatcher + replay for one arrived read TLP: books
     *  the request and returns its service time. */
    Tick deviceReceive(CoreId core, Addr addr);

    /** The delay module releases a response: book it and close the
     *  request's service span. */
    void respond(std::uint64_t span, std::uint16_t lane);

    DeviceParams cfg;
    PcieLink &link;
    std::vector<std::unique_ptr<ReplayWindow>> replayModules;
    std::uint16_t traceLaneBase = 0;
};

} // namespace kmu

#endif // KMU_DEVICE_DEVICE_EMULATOR_HH
