/**
 * @file
 * PCIe link model with per-TLP overhead accounting.
 *
 * The paper's device sits behind a PCIe Gen2 x8 link (4 GB/s peak per
 * direction). The figure-8 bottleneck comes from the *protocol*
 * overheads rather than raw bandwidth: every transaction-layer packet
 * carries a 24-byte header, and the software-queue protocol needs
 * several TLPs per device access (descriptor fetch, response data
 * write, completion write). We model each direction as a serial wire:
 * TLPs transmit back-to-back at the configured rate, then arrive
 * after a fixed propagation delay.
 *
 * "Useful" bytes — requested cache-line data, as opposed to headers
 * and queue-management traffic — are tracked separately so benches
 * can report the paper's "2 GB/s of 4 GB/s useful" result.
 */

#ifndef KMU_MEM_PCIE_LINK_HH
#define KMU_MEM_PCIE_LINK_HH

#include <utility>

#include "sim/sim_object.hh"
#include "trace/trace.hh"

namespace kmu
{

/** Direction of travel across the link. */
enum class LinkDir
{
    ToDevice, //!< host root complex -> device endpoint
    ToHost    //!< device endpoint -> host root complex
};

/** Static parameters of a link. */
struct PcieLinkParams
{
    std::uint64_t bytesPerSec = 4'000'000'000ull; //!< per direction
    std::uint32_t tlpHeaderBytes = 24;            //!< per-TLP overhead
    Tick propagation = 386'000;                   //!< ps, one way
};

class PcieLink : public SimObject
{
  public:
    PcieLink(std::string name, EventQueue &queue, PcieLinkParams params,
             StatGroup *stat_parent);

    const PcieLinkParams &params() const { return cfg; }

    /**
     * Transmit one TLP.
     *
     * @param dir           direction of travel.
     * @param payload_bytes TLP payload (header added internally).
     * @param useful_bytes  portion of the payload that is requested
     *                      application data (for utilization stats).
     * @param cb            runs when the TLP fully arrives; bound
     *                      straight into the event arena.
     */
    template <typename F>
    void
    send(LinkDir dir, std::uint32_t payload_bytes,
         std::uint32_t useful_bytes, F &&cb)
    {
        const Delivery d = transmit(dir, payload_bytes, useful_bytes);
        if (d.traced) {
            // The TLP's time on the link is a trace span: it ends at
            // delivery. Only a traced run pays for the wrapper.
            eventQueue().scheduleLambda(
                d.at,
                [span = d.span, lane = d.lane,
                 cb = std::forward<F>(cb)]() mutable {
                    trace::end(trace::Kind::PcieTlp, span, lane);
                    cb();
                },
                EventPriority::DeviceResponse, deliverName);
            return;
        }
        eventQueue().scheduleLambda(d.at, std::forward<F>(cb),
                                    EventPriority::DeviceResponse,
                                    deliverName);
    }

    /** Wire bytes transmitted so far in @p dir (headers included). */
    std::uint64_t wireBytes(LinkDir dir) const;

    /** Useful data bytes delivered so far in @p dir. */
    std::uint64_t usefulBytes(LinkDir dir) const;

    /** TLP count so far in @p dir. */
    std::uint64_t tlpCount(LinkDir dir) const;

    /** Reset byte/TLP counters (occupancy state is untouched). */
    void resetCounters();

  private:
    /** Cached "<name>.deliver": the per-TLP event name. */
    const std::string deliverName = name() + ".deliver";

    /** One TLP as booked on the wire by transmit(). */
    struct Delivery
    {
        Tick at;            //!< arrival tick at the far end
        std::uint64_t span; //!< PcieTlp trace span (traced only)
        std::uint16_t lane; //!< trace lane of the direction
        bool traced;        //!< a trace sink saw the span begin
    };

    /** Serialize one TLP on @p dir: wire accounting, the trace
     *  span's begin, and the tick it arrives. */
    Delivery transmit(LinkDir dir, std::uint32_t payload_bytes,
                      std::uint32_t useful_bytes);

    struct Direction
    {
        Tick wireFreeAt = 0;
        std::uint64_t wire = 0;
        std::uint64_t useful = 0;
        std::uint64_t tlps = 0;
        /** Trace span id; monotonic, survives resetCounters(). */
        std::uint64_t traceSeq = 0;
    };

    Direction &dirState(LinkDir dir);
    const Direction &dirState(LinkDir dir) const;

    PcieLinkParams cfg;
    Direction toDevice;
    Direction toHost;
};

} // namespace kmu

#endif // KMU_MEM_PCIE_LINK_HH
