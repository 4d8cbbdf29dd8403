/**
 * @file
 * Timing model of the per-core request fetcher (software-queue mode).
 *
 * One fetcher exists per core (Fig. 1, gray boxes). Its lifecycle:
 *
 *  parked --(host doorbell MMIO write)--> fetching
 *  fetching: DMA-read a burst of eight descriptors from the host
 *            request queue (read-request TLP upstream, host memory
 *            latency, completion TLP downstream), hand each new
 *            descriptor to the delay path, and loop while at least
 *            one new descriptor was retrieved;
 *  fetching --(empty burst)--> write the in-memory doorbell-request
 *            flag and park.
 *
 * For each serviced descriptor the device performs two ordered
 * writes toward the host: the 64-byte response data, then the
 * completion-queue record — this TLP traffic is what saturates the
 * link in the paper's Fig. 8.
 */

#ifndef KMU_DEVICE_REQUEST_FETCHER_HH
#define KMU_DEVICE_REQUEST_FETCHER_HH

#include <functional>
#include <vector>

#include "device/device_params.hh"
#include "mem/pcie_link.hh"
#include "queue/sw_queue_pair.hh"
#include "sim/sim_object.hh"

namespace kmu
{

class RequestFetcher : public SimObject
{
  public:
    /** Runs at the host when a completion record lands in the CQ. */
    using CompletionNotify = std::function<void(const CompletionDescriptor &)>;

    RequestFetcher(std::string name, EventQueue &queue, CoreId core,
                   DeviceParams params, SwQueuePair &qp, PcieLink &link,
                   Tick host_mem_latency, CompletionNotify notify,
                   StatGroup *stat_parent);

    /**
     * Host-side doorbell: transmits the MMIO write TLP and restarts
     * the fetcher when it arrives at the device.
     */
    void ringDoorbell();

    /** @{ Statistics. */
    Counter doorbells;
    Counter burstReads;
    Counter descriptorsFetched;
    Counter emptyBursts;
    Counter responses;
    /** Pull-through views of the queue pair's lock-free ring
     *  counters, so ring backpressure (reject rate) shows up in the
     *  same stats dump as the fetcher's protocol counters. */
    Gauge requestPushes;
    Gauge requestRejects;
    Gauge completionPops;
    /** @} */

  private:
    /** Cached event names for the per-request fetch pipeline. */
    const std::string descReadName = name() + ".descRead";
    const std::string writeDelayName = name() + ".writeDelay";
    const std::string writeDataName = name() + ".writeData";
    const std::string delayName = name() + ".delay";

    void issueBurst();

    /** Service the burst that just arrived in `burst`. */
    void processBurst();
    void serviceDescriptor(const RequestDescriptor &desc);
    void sendCompletion(const RequestDescriptor &desc);

    CoreId core;
    DeviceParams cfg;
    SwQueuePair &queues;
    PcieLink &link;
    Tick hostMemLatency;
    CompletionNotify notify;
    /** The one descriptor burst in flight (a fetcher never issues
     *  the next burst before servicing this one), reused so the
     *  fetch path allocates nothing. */
    std::vector<RequestDescriptor> burst;
};

} // namespace kmu

#endif // KMU_DEVICE_REQUEST_FETCHER_HH
