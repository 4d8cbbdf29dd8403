/**
 * @file
 * Whole-system assembly of the timing model.
 *
 * A SimSystem instantiates, for one SystemConfig: the cores (one
 * model per mechanism), per-core LFBs, the chip-level shared queues,
 * the PCIe link, the device emulator (memory-mapped) or per-core
 * request fetchers + software queue pairs (software-queue mode), and
 * host DRAM. run() executes warmup + measurement windows and returns
 * aggregate metrics.
 *
 * Normalization follows the paper: every result is divided by the
 * work IPC of a single-threaded, single-core, on-demand run with the
 * data in DRAM and the same iteration plan ("normalized work IPC").
 */

#ifndef KMU_CORE_SIM_SYSTEM_HH
#define KMU_CORE_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <vector>

#include "check/sim_checker.hh"
#include "core/core_base.hh"
#include "core/system_config.hh"
#include "device/device_emulator.hh"
#include "device/request_fetcher.hh"
#include "mem/dram_model.hh"
#include "mem/pcie_link.hh"
#include "mem/uncore_queue.hh"
#include "queue/sw_queue_pair.hh"

namespace kmu
{

namespace trace
{
class OccupancySampler;
class TraceBuffer;
} // namespace trace

namespace serve
{
class ServeDriver;
} // namespace serve

/** Buckets of RunResult's per-request latency histogram (log2 ns);
 *  must equal serve::ServeDriver::latencyBuckets (static_assert in
 *  sim_system.cc). */
constexpr std::size_t serveLatencyBucketCount = 32;

/** Aggregate metrics of one measured window. */
struct RunResult
{
    Tick elapsed = 0;               //!< measurement window length
    std::uint64_t iterations = 0;   //!< completed across all cores
    std::uint64_t workInstrs = 0;   //!< work instructions retired
    std::uint64_t accesses = 0;     //!< device/DRAM accesses done
    std::uint64_t writes = 0;       //!< posted line writes emitted

    double workIpc = 0.0;           //!< work instrs per core cycle
    double accessesPerUs = 0.0;     //!< aggregate access throughput

    double meanReadLatencyNs = 0.0; //!< issue-to-fill, host observed

    double toHostWireGBs = 0.0;     //!< PCIe device->host, with headers
    double toHostUsefulGBs = 0.0;   //!< PCIe device->host, data only
    double toDeviceWireGBs = 0.0;   //!< PCIe host->device, with headers

    std::uint32_t chipQueuePeak = 0;   //!< peak PCIe-path occupancy
    std::uint64_t prefetchesQueued = 0; //!< prefetches that waited for
                                        //!< a free LFB entry
    std::uint64_t replayMisses = 0;     //!< spurious device requests

    /** @{ L1 totals across cores, warmup included (l1Enabled only). */
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    /** @} */

    /** @{
     * Shard topology of the run (src/topo). shardCount is 1 for the
     * paper's single-device platform; the request extremes expose
     * interleave imbalance (warmup included, device side: emulator
     * requests on the memory-mapped paths, fetcher response pairs on
     * the software-queue path; zero when no device is present).
     */
    std::uint32_t shardCount = 1;
    std::uint64_t shardRequestsMin = 0;
    std::uint64_t shardRequestsMax = 0;
    /** @} */

    /** @{
     * Open-loop serving mode (src/serve); all zero with
     * serve.arrival == Off. Counts cover the measurement window:
     * offered = arrivals, completed = retirements (under overload
     * completed < offered — requests pile up in the arrival queue),
     * sloMet = completions within serve.sloUs. Latency is
     * arrival-to-retirement in ns, queueing included; the histogram
     * uses log2 buckets [2^i, 2^(i+1)) ns, and the percentiles
     * interpolate inside buckets (LogHistogram::quantile).
     * inFlightPeak covers the whole run, warmup included.
     */
    std::uint64_t serveOffered = 0;
    std::uint64_t serveCompleted = 0;
    std::uint64_t serveSloMet = 0;
    std::uint64_t serveInFlightPeak = 0;

    double serveP50Ns = 0.0;
    double serveP99Ns = 0.0;
    double serveP999Ns = 0.0;
    double serveMeanLatencyNs = 0.0;
    /** SLO-met completions per microsecond of the window. */
    double serveGoodputPerUs = 0.0;

    std::array<std::uint64_t, serveLatencyBucketCount>
        serveLatencyBuckets{};
    std::uint64_t serveLatencyUnderflow = 0;
    std::uint64_t serveLatencyOverflow = 0;
    /** @} */

    /** @{
     * Event-kernel self-measurement: how fast the simulator itself
     * ran this point. kernelEvents counts every event serviced by
     * the run (warmup included); kernelWallSeconds is the host wall
     * time spent inside EventQueue::run. The ratio is the kernel's
     * events/sec for this workload. Host-dependent by design — it
     * feeds the BENCH_sweep.json trajectory and is never printed
     * into CSVs or compared by determinism gates.
     */
    std::uint64_t kernelEvents = 0;
    double kernelWallSeconds = 0.0;
    /** @} */
};

class SimSystem
{
  public:
    explicit SimSystem(SystemConfig config);
    ~SimSystem();

    SimSystem(const SimSystem &) = delete;
    SimSystem &operator=(const SimSystem &) = delete;

    /** Execute warmup + measurement; callable once per SimSystem. */
    RunResult run();

    /**
     * Route this system's trace records into @p buf: binds the
     * buffer's clock to this system's event queue, labels every
     * component's trace lane, and starts a periodic queue-occupancy
     * sampler (per-core LFB, chip queue, software rings) emitting
     * every @p samplePeriod ticks. Call before run(); the caller
     * keeps @p buf alive past the run and owns sink installation
     * via trace::setSink().
     */
    void enableTracing(trace::TraceBuffer &buf, Tick samplePeriod);

    /** @{ Component access for tests.
     * The zero-arg accessors return shard 0's component (the only
     * one in a single-device system); the indexed overloads address
     * one shard of a sharded topology. */
    EventQueue &eventQueue() { return eq; }
    const SystemConfig &config() const { return cfg; }
    CoreBase &core(std::size_t i) { return *cores.at(i); }
    std::uint32_t shardCount() const { return cfg.topo.shards; }
    UncoreQueue *chipQueue(std::size_t s = 0);
    DeviceEmulator *deviceEmulator(std::size_t s = 0);
    StatGroup &stats() { return root; }
    SimChecker &invariantChecker() { return *checker; }
    /** @} */

  private:
    void buildMemoryMapped();
    void buildSwQueue();
    void buildChecker();

    /** Construct the ServeDriver and install the serving hooks into
     *  cfg (must run before the cores copy-capture them). */
    void buildServing();

    /** Iteration streams per core (SMT contexts for on-demand, ULT
     *  threads otherwise) — the serving lane geometry. */
    std::uint32_t lanesPerCore() const;

    SystemConfig cfg;
    EventQueue eq;
    StatGroup root;

    std::unique_ptr<DramModel> dram;
    /** One link / chip queue / device emulator per shard (shard 0 is
     *  the whole system when cfg.topo.shards == 1). */
    std::vector<std::unique_ptr<PcieLink>> links;
    std::vector<std::unique_ptr<UncoreQueue>> chipQueues;
    std::vector<std::unique_ptr<DeviceEmulator>> devices;
    /** Core-major: element core * shards + shard. */
    std::vector<std::unique_ptr<SwQueuePair>> queuePairs;
    std::vector<std::unique_ptr<RequestFetcher>> fetchers;
    std::vector<std::unique_ptr<CoreBase>> cores;
    std::unique_ptr<Average> readLatency; //!< ns, issue to fill
    std::unique_ptr<LogHistogram> readLatencyLog; //!< ns, log2 buckets
    std::unique_ptr<SimChecker> checker; //!< periodic invariant sweeps
    std::unique_ptr<trace::OccupancySampler> sampler;
    /** Open-loop request driver (nullptr when serve.arrival == Off,
     *  which keeps every closed-loop run byte-identical). */
    std::unique_ptr<serve::ServeDriver> serving;
    bool ran = false;

    /** Record one issue-to-fill latency in both latency stats. */
    void sampleReadLatency(double ns);
};

/** Build and run one system; convenience for benches and tests. */
RunResult runSystem(const SystemConfig &cfg);

/**
 * The paper's normalization baseline for @p cfg: single-core,
 * single-thread, on-demand accesses with data in DRAM, same
 * iteration plan and work shape.
 */
SystemConfig baselineConfig(const SystemConfig &cfg);

/** Normalized work IPC of @p result against @p baseline. */
double normalizedWorkIpc(const RunResult &result,
                         const RunResult &baseline);

/** Run both @p cfg and its baseline, returning the normalized IPC. */
double normalizedWorkIpc(const SystemConfig &cfg);

} // namespace kmu

#endif // KMU_CORE_SIM_SYSTEM_HH
