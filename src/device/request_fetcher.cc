#include "device/request_fetcher.hh"

#include "common/thread_annotations.hh"
#include "trace/trace.hh"

namespace kmu
{

RequestFetcher::RequestFetcher(std::string name, EventQueue &queue,
                               CoreId core_id, DeviceParams params,
                               SwQueuePair &qp, PcieLink &pcie,
                               Tick host_mem_latency,
                               CompletionNotify notify_cb,
                               StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      doorbells(stats(), "doorbells", "doorbell MMIO writes received"),
      burstReads(stats(), "burst_reads", "descriptor DMA bursts issued"),
      descriptorsFetched(stats(), "descriptors_fetched",
                         "request descriptors retrieved"),
      emptyBursts(stats(), "empty_bursts",
                  "bursts that retrieved no new descriptor"),
      responses(stats(), "responses", "data+completion write pairs sent"),
      requestPushes(stats(), "request_pushes",
                    "descriptors accepted by the request ring",
                    [&qp]() { return qp.requestRing().totalPushes(); }),
      requestRejects(stats(), "request_rejects",
                     "submissions rejected by a full request ring",
                     [&qp]() { return qp.requestRing().totalRejects(); }),
      completionPops(stats(), "completion_pops",
                     "completion records reaped by the host",
                     [&qp]() { return qp.completionRing().totalPops(); }),
      core(core_id), cfg(params), queues(qp), link(pcie),
      hostMemLatency(host_mem_latency), notify(std::move(notify_cb))
{
    burst.reserve(cfg.burstSize);
}

void
RequestFetcher::ringDoorbell()
{
    // MMIO doorbell write: small posted write toward the device.
    link.send(LinkDir::ToDevice, 4, 0, [this]() {
        ++doorbells;
        trace::instant(trace::Kind::Doorbell, doorbells.value(),
                       traceTrack());
        if (!queues.fetcherParked())
            return; // already fetching; doorbell is redundant
        queues.doorbellArrived();
        issueBurst();
    });
}

void
RequestFetcher::issueBurst()
{
    ++burstReads;
    trace::begin(trace::Kind::DescBurst, burstReads.value(),
                 traceTrack());
    // Upstream read-request TLP for the descriptor region...
    link.send(LinkDir::ToHost, 0, 0, [this]() {
        // ...host memory access to gather the burst...
        eventQueue().scheduleLambda(
            curTick() + hostMemLatency,
            [this]() {
                burst.clear();
                RoleGuard device(queues.deviceRole);
                queues.fetchBurst(burst, cfg.burstSize);
                // The device always over-reads a full burst worth of
                // descriptor slots regardless of how many are new.
                const std::uint32_t payload =
                    cfg.burstSize * sizeof(RequestDescriptor);
                link.send(LinkDir::ToDevice, payload, 0,
                          [this]() { processBurst(); });
            },
            EventPriority::Default, descReadName);
    });
}

void
RequestFetcher::processBurst()
{
    trace::end(trace::Kind::DescBurst, burstReads.value(),
               traceTrack(), std::uint32_t(burst.size()));
    if (burst.empty()) {
        ++emptyBursts;
        if (!cfg.doorbellFlag) {
            // Ablation mode: no flag protocol; the host doorbells
            // every submission, so parking silently is safe.
            RoleGuard device(queues.deviceRole);
            queues.parkWithoutFlag();
            return;
        }
        // Park once the 8-byte flag write lands in host memory; the
        // park step's re-fetch picks up whatever raced in meanwhile.
        link.send(LinkDir::ToHost, 8, 0, [this]() {
            RoleGuard device(queues.deviceRole);
            if (queues.park(burst, cfg.burstSize) == 0) {
                // The flag write and the re-fetch run in one event,
                // so nothing may have consumed the flag in between.
                KMU_INVARIANT(queues.doorbellRequested(),
                              "%s parking without the doorbell-request "
                              "flag set: a raced submission would be "
                              "stranded", name().c_str());
                return;
            }
            // Raced-in requests: service them and keep fetching.
            descriptorsFetched += burst.size();
            for (const RequestDescriptor &desc : burst)
                serviceDescriptor(desc);
            issueBurst();
        });
        return;
    }

    descriptorsFetched += burst.size();
    for (const RequestDescriptor &desc : burst)
        serviceDescriptor(desc);

    // At least one new descriptor: keep fetching without a doorbell.
    issueBurst();
}

void
RequestFetcher::serviceDescriptor(const RequestDescriptor &desc)
{
    // hostAddr is unique among in-flight descriptors (it names the
    // completion slot), so it doubles as the span id.
    trace::begin(trace::Kind::DescService, desc.hostAddr,
                 traceTrack(), desc.isWrite() ? 1 : 0);
    if (desc.isWrite()) {
        // Write path: DMA-read the 64-byte payload from the host
        // staging buffer, apply it after the hold time, then post
        // only a completion (no data travels back to the host).
        link.send(LinkDir::ToHost, 0, 0, [this, desc]() {
            eventQueue().scheduleLambda(
                curTick() + hostMemLatency,
                [this, desc]() {
                    link.send(
                        LinkDir::ToDevice, cacheLineSize, 0,
                        [this, desc]() {
                            eventQueue().scheduleLambda(
                                curTick() + cfg.holdTime(),
                                [this, desc]() {
                                    ++responses;
                                    sendCompletion(desc);
                                },
                                EventPriority::Default,
                                writeDelayName);
                        });
                },
                EventPriority::Default, writeDataName);
        });
        return;
    }

    // Software-generated requests are never missing or spurious, so
    // a read needs no replay lookup: the delay module just holds it.
    eventQueue().scheduleLambda(
        curTick() + cfg.holdTime(),
        [this, desc]() {
            ++responses;
            // Ordered pair: response data first, completion second.
            // FIFO link serialization preserves the order.
            link.send(LinkDir::ToHost, cacheLineSize, cacheLineSize,
                      []() {});
            sendCompletion(desc);
        },
        EventPriority::Default, delayName);
}

void
RequestFetcher::sendCompletion(const RequestDescriptor &desc)
{
    link.send(LinkDir::ToHost, completionWireBytes, 0,
              [this, desc]() {
                  trace::end(trace::Kind::DescService, desc.hostAddr,
                             traceTrack());
                  trace::instant(trace::Kind::Completion,
                                 desc.hostAddr, traceTrack());
                  CompletionDescriptor comp{desc.hostAddr};
                  RoleGuard device(queues.deviceRole);
                  const bool ok = queues.postCompletion(comp);
                  kmuAssert(ok, "completion queue overflow");
                  notify(comp);
              });
}

} // namespace kmu
