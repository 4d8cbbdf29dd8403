#include "device/emulated_device.hh"

#include <algorithm>
#include <cstring>

#include "common/crc.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "fault/fault_plan.hh"
#include "topo/topology.hh"
#include "trace/trace.hh"

namespace kmu
{

EmulatedDevice::EmulatedDevice(std::vector<std::uint8_t> backing,
                               Config config)
    : data(std::move(backing)), cfg(config)
{
}

EmulatedDevice::~EmulatedDevice()
{
    if (running())
        stop();
}

std::size_t
EmulatedDevice::addQueuePair()
{
    kmuAssert(!running(), "add queue pairs before start()");
    pairs.push_back(std::make_unique<Pair>(
        cfg.queueDepth, std::uint16_t(pairs.size())));
    return pairs.size() - 1;
}

SwQueuePair &
EmulatedDevice::queuePair(std::size_t index)
{
    kmuAssert(index < pairs.size(), "bad queue pair index %zu", index);
    return pairs[index]->queues;
}

void
EmulatedDevice::enableReplayCheck(std::size_t index,
                                  std::vector<Addr> sequence,
                                  std::size_t window_size)
{
    kmuAssert(index < pairs.size(), "bad queue pair index %zu", index);
    kmuAssert(!running(), "enable replay checks before start()");
    Pair &pair = *pairs[index];
    pair.recordedSequence = std::move(sequence);
    pair.replayCursor = 0;
    Pair *p = &pair;
    pair.replayCheck = std::make_unique<ReplayWindow>(
        [p](Addr &next) {
            if (p->replayCursor >= p->recordedSequence.size())
                return false;
            next = p->recordedSequence[p->replayCursor++];
            return true;
        },
        window_size);
}

void
EmulatedDevice::doorbell(std::size_t index)
{
    kmuAssert(index < pairs.size(), "bad queue pair index %zu", index);
    // Doorbell loss: the MMIO write never reaches the fetcher. The
    // host's watchdog recovery path rings again on timeout, so the
    // queue pair cannot strand permanently.
    if (fault::fire(fault::FaultSite::DoorbellLoss))
        return;
    pairs[index]->queues.doorbellArrived();
}

void
EmulatedDevice::start()
{
    if (cfg.manual)
        return; // host pumps; no service thread
    kmuAssert(!running(), "device already running");
    stopRequested.store(false, std::memory_order_relaxed);
    serviceThread = std::thread([this]() { serviceLoop(); });
}

void
EmulatedDevice::stop()
{
    if (cfg.manual) {
        // Drain whatever is still pending so late completions land
        // before the host tears down its buffers.
        bool draining = true;
        while (draining) {
            pump();
            draining = false;
            for (auto &pair : pairs)
                draining |= !pair->inFlight.empty();
        }
        return;
    }
    kmuAssert(running(), "device not running");
    stopRequested.store(true, std::memory_order_release);
    serviceThread.join();
}

bool
EmulatedDevice::pump()
{
    kmuAssert(cfg.manual, "pump() only drives manual-mode devices");
    step++;
    bool busy = false;
    for (auto &pair : pairs)
        busy |= servicePair(*pair, step);
    bumpSingleWriter(passes);
    return busy;
}

void
EmulatedDevice::serviceLoop()
{
    while (true) {
        const bool stopping =
            stopRequested.load(std::memory_order_acquire);
        bool busy = false;
        bool draining = false;

        const std::uint64_t now = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
        for (auto &pair : pairs) {
            busy |= servicePair(*pair, now);
            draining |= !pair->inFlight.empty();
        }
        bumpSingleWriter(passes);

        if (stopping && !draining)
            return;
        if (!busy)
            std::this_thread::yield();
    }
}

bool
EmulatedDevice::servicePair(Pair &pair, std::uint64_t now)
{
    bool busy = false;
    const std::uint64_t latency =
        cfg.manual ? cfg.manualLatencySteps
                   : std::uint64_t(cfg.latency.count());

    // Fetch stage: burst-read descriptors unless parked. An empty
    // burst takes the queue pair's park step, exactly like the
    // hardware protocol.
    // The whole service pass runs as the device side of the pair's
    // queue protocol (on the service thread, or on the host thread
    // *inside pump()* in manual mode — single-threaded either way).
    RoleGuard device(pair.queues.deviceRole);

    // Device hang: the whole pair goes dark — no descriptor fetch,
    // no completion delivery — for a window of service steps. The
    // shard id of the encounter is the pair index, so a plan's
    // shardMask scopes the outage to chosen failure domains. A
    // hanging pair stops encountering the site, so consecutive
    // windows never merge into an unbounded outage.
    if (now < pair.hangUntil)
        return false;
    if (fault::fire(fault::FaultSite::DeviceHang, pair.traceLane)) {
        // The window counts service steps; a threaded device takes
        // one latency per step.
        const std::uint64_t window =
            fault::magnitude(fault::FaultSite::DeviceHang, 64);
        pair.hangUntil = now + window * (cfg.manual ? 1 : latency);
        return false;
    }

    if (!pair.queues.fetcherParked()) {
        std::vector<RequestDescriptor> &burst = pair.burst;
        burst.clear();
        // Truncation fault: the burst DMA read is cut short. Unread
        // descriptors stay in the ring for the next pass.
        std::size_t slots = descriptorBurst;
        if (fault::fire(fault::FaultSite::DescFetchTruncation))
            slots = std::size_t(fault::draw(
                fault::FaultSite::DescFetchTruncation, descriptorBurst));
        if (pair.queues.fetchBurst(burst, slots) != 0 ||
            pair.queues.park(burst) != 0) {
            busy = true;
            for (const RequestDescriptor &desc : burst)
                trace::begin(trace::Kind::DescService, desc.hostAddr,
                             pair.traceLane, desc.isWrite() ? 1 : 0);
            std::uint64_t ready = now + latency;
            for (const RequestDescriptor &desc : burst) {
                if (pair.replayCheck) {
                    // Eviction storm: recorded entries are discarded
                    // ahead of their requests, forcing on-demand
                    // fallback (counted as spurious below).
                    if (fault::fire(
                            fault::FaultSite::ReplayEvictionStorm)) {
                        const std::uint64_t n = fault::magnitude(
                            fault::FaultSite::ReplayEvictionStorm, 16);
                        pair.replayCheck->evictOldest(
                            std::size_t(fault::draw(
                                fault::FaultSite::ReplayEvictionStorm,
                                std::max<std::uint64_t>(n, 1))));
                    }
                    // A watchdog re-issue repeats an access whose
                    // first attempt was already checked; it neither
                    // consumes the recording nor counts as spurious.
                    if (!desc.isReissue() &&
                        pair.replayCheck->lookup(
                            lineAlign(desc.deviceAddr)) ==
                            ReplayWindow::Result::Miss)
                        bumpSingleWriter(spurious);
                }
                // Brownout: the sick shard still serves, but every
                // request runs magnitude× slow for the window the
                // plan's burst schedule defines.
                if (fault::fire(fault::FaultSite::Brownout,
                                pair.traceLane)) {
                    const std::uint64_t factor = fault::magnitude(
                        fault::FaultSite::Brownout, 4);
                    if (factor > 1)
                        ready += (factor - 1) * latency;
                }
                // On-demand module stall: this access is served from
                // the slow on-board path and takes extra time.
                if (!desc.isWrite() &&
                    fault::fire(fault::FaultSite::OnDemandStall)) {
                    const std::uint64_t extra = fault::draw(
                        fault::FaultSite::OnDemandStall,
                        fault::magnitude(fault::FaultSite::OnDemandStall,
                                         8));
                    ready += extra * latency;
                }
                pair.inFlight.push_back(Pending{desc, ready});
            }
        }
    }

    // Delay stage: complete requests whose deadline has passed.
    // Bursts are fetched in order, so the deque front is oldest —
    // which also gives same-queue read-after-write ordering.
    while (!pair.inFlight.empty() && pair.inFlight.front().ready <= now) {
        const Pending &pending = pair.inFlight.front();
        completeRequest(pair, pending.desc);
        bumpSingleWriter(serviced);
        pair.inFlight.pop_front();
        busy = true;
    }

    // Nothing left that could carry a held-back completion out: a
    // reorder fault must delay a completion, never strand it.
    if (pair.inFlight.empty() && pair.holdValid) {
        pair.holdValid = false;
        const bool ok = pair.queues.postCompletion(pair.held);
        kmuAssert(ok, "completion queue overflow");
        busy = true;
    }

    return busy;
}

void
EmulatedDevice::completeRequest(Pair &pair, const RequestDescriptor &desc)
    KMU_REQUIRES(pair.queues.deviceRole)
{
    const Addr line = desc.lineAddr();
    // Checked as line <= size - 64, so that a line within 64 bytes
    // of 2^64 cannot wrap past it.
    kmuAssert(data.size() >= cacheLineSize &&
                  line <= data.size() - cacheLineSize,
              "device access beyond backing store: %#llx",
              (unsigned long long)line);

    // The generation tag (bits 48..55) and shard tag (bits 56..61)
    // in the high hostAddr bits are host-side bookkeeping; strip
    // both before dereferencing, echo them back verbatim in the
    // completion.
    auto *host = reinterpret_cast<std::uint8_t *>(
        static_cast<std::uintptr_t>(
            RequestDescriptor::hostPtr(topo::stripShard(desc.hostAddr))));

    CompletionDescriptor comp{desc.hostAddr};
    if (desc.isWrite()) {
        // Store the host-provided line into the backing store.
        std::memcpy(data.data() + line, host, cacheLineSize);
    } else {
        // Response data write. No explicit fence needed: the
        // completion ring's release-store (postCompletion)
        // orders it before the completion is visible, and TSan
        // models that edge (it cannot model bare fences).
        std::memcpy(host, data.data() + line, cacheLineSize);
        // End-to-end contract: the CRC covers the data the device
        // *meant* to deliver, so a bit flip injected below (or any
        // corruption on the way) is detectable by the host.
        comp.crc = crc32c(data.data() + line, cacheLineSize);
        if (fault::fire(fault::FaultSite::ResponseBitFlip)) {
            const std::uint64_t bit =
                fault::draw(fault::FaultSite::ResponseBitFlip,
                            cacheLineSize * 8) -
                1;
            host[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        }
    }

    trace::end(trace::Kind::DescService, desc.hostAddr,
               pair.traceLane, desc.isWrite() ? 1 : 0);
    // Both kinds complete: reads to wake the requester, writes
    // so the host can recycle the staging buffer.
    deliverCompletion(pair, comp);
}

void
EmulatedDevice::deliverCompletion(Pair &pair,
                                  const CompletionDescriptor &comp)
    KMU_REQUIRES(pair.queues.deviceRole)
{
    // Completion loss: the data write landed but the completion
    // never posts. The host watchdog re-issues the request; the
    // duplicate is idempotent and its stale twin (if any) is
    // filtered by the generation tag.
    if (fault::fire(fault::FaultSite::CompletionLoss))
        return;

    // Completion reorder: hold this completion back and let the
    // next one overtake it.
    if (!pair.holdValid &&
        fault::fire(fault::FaultSite::CompletionReorder)) {
        pair.held = comp;
        pair.holdValid = true;
        return;
    }

    const bool ok = pair.queues.postCompletion(comp);
    kmuAssert(ok, "completion queue overflow");
    trace::instant(trace::Kind::Completion, comp.hostAddr,
                   pair.traceLane);
    if (pair.holdValid) {
        pair.holdValid = false;
        const bool ok2 = pair.queues.postCompletion(pair.held);
        kmuAssert(ok2, "completion queue overflow");
        trace::instant(trace::Kind::Completion, pair.held.hostAddr,
                       pair.traceLane);
    }
}

} // namespace kmu
