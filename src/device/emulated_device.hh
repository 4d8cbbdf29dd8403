/**
 * @file
 * Real-time software stand-in for the FPGA device.
 *
 * The paper's hardware emulator answers requests with correct data
 * after a configurable delay. On a machine without the FPGA we run
 * the same protocol on a dedicated OS thread: it services one
 * SwQueuePair per worker, burst-fetches descriptors, holds each until
 * its deadline (fetch time + configured latency), copies the cache
 * line from the backing store to the host buffer, and posts the
 * completion — honoring the doorbell-request flag protocol so the
 * host-side code is identical to what would drive real hardware.
 *
 * An optional replay-check mode routes every descriptor through a
 * ReplayWindow against a recorded sequence, reproducing the paper's
 * record-and-replay methodology functionally.
 *
 * Timing fidelity depends on having a spare core for the device
 * thread; correctness does not.
 */

#ifndef KMU_DEVICE_EMULATED_DEVICE_HH
#define KMU_DEVICE_EMULATED_DEVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "device/replay_window.hh"
#include "queue/sw_queue_pair.hh"

namespace kmu
{

class EmulatedDevice
{
  public:
    struct Config
    {
        /** Emulated device access latency. */
        std::chrono::nanoseconds latency{1000};

        /** Ring depth of each queue pair. */
        std::size_t queueDepth = 256;

        /**
         * Manual-pump mode: no service thread is spawned; the host
         * drives the device by calling pump() from its own wait
         * loops. Latency becomes manualLatencySteps pump passes
         * instead of wall-clock time, which makes runs with a fixed
         * seed and fault plan bit-for-bit reproducible (no OS
         * scheduler in the loop).
         */
        bool manual = false;

        /** Service latency in pump() passes when manual is set. */
        std::uint64_t manualLatencySteps = 4;
    };

    /**
     * @param backing device contents; descriptors' deviceAddr values
     *                index into this buffer.
     */
    EmulatedDevice(std::vector<std::uint8_t> backing, Config config);
    ~EmulatedDevice();

    EmulatedDevice(const EmulatedDevice &) = delete;
    EmulatedDevice &operator=(const EmulatedDevice &) = delete;

    /** Device capacity in bytes. */
    std::size_t size() const { return data.size(); }

    /** Read-only view of the backing store (for verification). */
    const std::uint8_t *contents() const { return data.data(); }

    /**
     * Create one queue pair (call before start()).
     * @return its index, to be passed to queuePair()/doorbell().
     */
    std::size_t addQueuePair();

    SwQueuePair &queuePair(std::size_t index);

    /**
     * Enable replay checking on a pair: descriptors are matched
     * against @p sequence; mismatches are counted as spurious.
     */
    void enableReplayCheck(std::size_t index, std::vector<Addr> sequence,
                           std::size_t window_size = 64);

    /** Host side: restart the parked fetcher of pair @p index. */
    void doorbell(std::size_t index);

    /** Launch the device service thread (no-op in manual mode). */
    void start();

    /** Drain in-flight requests and stop the service thread. In
     *  manual mode: pump until every pending request completed. */
    void stop();

    bool running() const { return serviceThread.joinable(); }

    /** True when configured for manual pumping. */
    bool manualMode() const { return cfg.manual; }

    /**
     * Manual mode: run one service pass over every queue pair and
     * advance the virtual step clock. Host wait loops call this
     * instead of yielding to the (absent) device thread.
     *
     * @return true when the pass did any work.
     */
    bool pump();

    /** @{ Aggregate statistics (valid while running or after stop). */
    std::uint64_t requestsServiced() const { return serviced.load(); }
    std::uint64_t replayMisses() const { return spurious.load(); }
    /** @} */

    /**
     * Service passes run so far (service thread or pump()). A host
     * watchdog compares successive reads to tell a device thread the
     * OS has descheduled from one that runs but never answers.
     */
    std::uint64_t
    servicePasses() const
    {
        return passes.load(std::memory_order_relaxed);
    }

  private:
    // Device time is one integer: the pump step in manual mode,
    // steady-clock nanoseconds otherwise. Service latency is
    // manualLatencySteps or latency, in the same unit.

    struct Pending
    {
        RequestDescriptor desc;
        std::uint64_t ready = 0; //!< device time it completes at
    };

    struct Pair
    {
        Pair(std::size_t depth, std::uint16_t lane)
            : queues(depth), traceLane(lane)
        {
            burst.reserve(descriptorBurst);
        }

        SwQueuePair queues;
        std::uint16_t traceLane; //!< trace track (= pair index)
        std::deque<Pending> inFlight;
        /** The service pass's fetched descriptors, reused across
         *  passes so a pass allocates nothing. */
        std::vector<RequestDescriptor> burst;
        std::unique_ptr<ReplayWindow> replayCheck;
        std::vector<Addr> recordedSequence;
        std::size_t replayCursor = 0;
        /** Holdback slot for the completion-reorder fault. */
        CompletionDescriptor held;
        bool holdValid = false;
        /** Device-hang fault window: the pair services nothing until
         *  device time reaches this. */
        std::uint64_t hangUntil = 0;
    };

    /** Device thread main loop. */
    void serviceLoop();

    /** One scheduling pass over a pair; returns true if it did work.
     *  Runs as the device side of the pair's queue protocol. */
    bool servicePair(Pair &pair, std::uint64_t now);

    /** Complete one request: data write, CRC, completion post. */
    void completeRequest(Pair &pair, const RequestDescriptor &desc)
        KMU_REQUIRES(pair.queues.deviceRole);

    /** Post a completion, applying loss/reorder faults. */
    void deliverCompletion(Pair &pair, const CompletionDescriptor &comp)
        KMU_REQUIRES(pair.queues.deviceRole);

    std::vector<std::uint8_t> data;
    Config cfg;
    std::vector<std::unique_ptr<Pair>> pairs;
    std::thread serviceThread;
    std::atomic<bool> stopRequested
        KMU_ATOMIC_ROLE(host_writes, device_reads){false};
    // The counters below have one writer, the service pass, which
    // bumps them with bumpSingleWriter.
    std::atomic<std::uint64_t> serviced
        KMU_ATOMIC_ROLE(device_writes, observers_read){0};
    std::atomic<std::uint64_t> spurious
        KMU_ATOMIC_ROLE(device_writes, observers_read){0};
    std::uint64_t step = 0; //!< manual-mode virtual clock
    /** The host's watchdog reads this on every poll: its own line, so
     *  the poll does not pull the device's other state across. */
    alignas(64) std::atomic<std::uint64_t> passes
        KMU_ATOMIC_ROLE(device_writes, host_reads){0};
};

} // namespace kmu

#endif // KMU_DEVICE_EMULATED_DEVICE_HH
