#include "mem/pcie_link.hh"

#include "check/invariant.hh"
#include "common/units.hh"
#include "trace/trace.hh"

namespace kmu
{

PcieLink::PcieLink(std::string name, EventQueue &queue,
                   PcieLinkParams params, StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent), cfg(params)
{
    kmuAssert(cfg.bytesPerSec > 0, "link bandwidth must be positive");
}

PcieLink::Direction &
PcieLink::dirState(LinkDir dir)
{
    return dir == LinkDir::ToDevice ? toDevice : toHost;
}

const PcieLink::Direction &
PcieLink::dirState(LinkDir dir) const
{
    return dir == LinkDir::ToDevice ? toDevice : toHost;
}

PcieLink::Delivery
PcieLink::transmit(LinkDir dir, std::uint32_t payload_bytes,
                   std::uint32_t useful_bytes)
{
    KMU_INVARIANT(useful_bytes <= payload_bytes,
                  "useful bytes exceed payload (%u > %u)",
                  useful_bytes, payload_bytes);
    Direction &d = dirState(dir);

    const std::uint32_t wire_bytes = payload_bytes + cfg.tlpHeaderBytes;

    const Tick start = std::max(curTick(), d.wireFreeAt);
    const Tick done = start + transferTicks(wire_bytes, cfg.bytesPerSec);
    KMU_INVARIANT(done >= start,
                  "link transfer time went backwards (%llu < %llu)",
                  (unsigned long long)done, (unsigned long long)start);

    d.wireFreeAt = done;
    d.wire += wire_bytes;
    d.useful += useful_bytes;
    d.tlps += 1;
    // Goodput can never exceed raw wire traffic in either direction.
    KMU_MODEL_CHECK(d.useful <= d.wire,
                    "useful bytes %llu exceed wire bytes %llu",
                    (unsigned long long)d.useful,
                    (unsigned long long)d.wire);

    Delivery out{done + cfg.propagation, 0, 0, false};
    // The TLP's time on the link is a span: begin at send, end at
    // delivery (send() wraps the callback). Lanes traceTrack()+0/+1 =
    // toDevice/toHost so the two directions render separately.
    if (trace::active()) {
        out.lane = std::uint16_t(
            traceTrack() + (dir == LinkDir::ToDevice ? 0 : 1));
        out.span = d.traceSeq++;
        out.traced = true;
        trace::begin(trace::Kind::PcieTlp, out.span, out.lane,
                     wire_bytes);
    }
    return out;
}

std::uint64_t
PcieLink::wireBytes(LinkDir dir) const
{
    return dirState(dir).wire;
}

std::uint64_t
PcieLink::usefulBytes(LinkDir dir) const
{
    return dirState(dir).useful;
}

std::uint64_t
PcieLink::tlpCount(LinkDir dir) const
{
    return dirState(dir).tlps;
}

void
PcieLink::resetCounters()
{
    toDevice.wire = toDevice.useful = toDevice.tlps = 0;
    toHost.wire = toHost.useful = toHost.tlps = 0;
}

} // namespace kmu
