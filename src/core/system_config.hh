/**
 * @file
 * All knobs of the timing model, with defaults calibrated to the
 * paper's platform (Xeon E5-2670v3 host, PCIe Gen2 x8 FPGA device).
 *
 * Calibration notes (see EXPERIMENTS.md for the derivation):
 *  - core: 2.5 GHz, 4-wide, ROB 192, work IPC ~1.4 (the paper's
 *    dependent arithmetic loop);
 *  - LFB: 10 per core; chip-level PCIe-path queue: 14 (measured by
 *    the paper); DRAM-path queue: 48;
 *  - context switch: 50 ns (paper: 20-50 ns after optimization);
 *  - software-queue per-request costs dominate that mechanism's
 *    ~50 % peak (paper Fig. 7/9).
 */

#ifndef KMU_CORE_SYSTEM_CONFIG_HH
#define KMU_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <functional>

#include "access/access_engine.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "device/device_params.hh"
#include "mem/cache.hh"
#include "mem/dram_model.hh"
#include "mem/pcie_link.hh"
#include "serve/serve_config.hh"
#include "topo/topology.hh"

namespace kmu
{

/** Where the workload's data structure lives. */
enum class Backing
{
    Dram,  //!< baseline: data in host DRAM
    Device //!< data on the microsecond-latency device
};

/**
 * Where the device attaches (memory-mapped mechanisms only).
 *
 * The paper's implication: "shared hardware queues on the DRAM
 * access path are larger than on the PCIe path. Therefore,
 * integrating microsecond-latency devices on the memory
 * interconnect ... may be a step in the right direction."
 * MemoryBus models exactly that: the device sits behind the deep
 * DRAM-path queue (48 entries) with no PCIe TLP overheads; QPI/DDR
 * transport time is folded into the configured device latency.
 */
enum class DeviceAttach
{
    Pcie,     //!< behind the 14-entry chip queue and the TLP link
    MemoryBus //!< behind the 48-entry DRAM-path queue
};

/** Shape of one microbenchmark iteration. */
struct IterationPlan
{
    std::uint32_t batch;     //!< independent reads issued together
    std::uint32_t work;      //!< work instructions per read
};

struct SystemConfig
{
    /** @{ Topology. */
    std::uint32_t numCores = 1;
    std::uint32_t threadsPerCore = 1;

    /**
     * Device-side topology: how many device shards the system
     * instantiates and how host lines interleave across them. The
     * default (one shard) reproduces the paper's single-device
     * platform exactly. See src/topo/topology.hh.
     */
    topo::TopologyConfig topo;
    /** @} */

    /** @{ Core microarchitecture. */
    double coreFreqHz = 2.5e9;
    std::uint32_t robSize = 192;

    /**
     * Hardware SMT contexts per core, used by the on-demand model
     * only (the paper's Section III: SMT lets a core progress in one
     * context while another blocks on a long-latency access, but
     * commodity parts offer just two contexts). The ROB partitions
     * evenly among active contexts. The paper's evaluation disables
     * hyperthreading, so the default is 1.
     */
    std::uint32_t smtContexts = 1;
    double workIpc = 1.4;          //!< dependent arithmetic chain
    std::uint32_t loopOverheadInstrs = 8;
    Tick loadHitLatency = picoseconds(1200);    //!< L1 hit
    Tick prefetchIssueLatency = picoseconds(800);
    /** @} */

    /** @{ Hardware queues (the paper's bottlenecks). */
    std::uint32_t lfbPerCore = 10;
    std::uint32_t chipPcieQueue = 14;
    std::uint32_t chipDramQueue = 48;
    /** @} */

    /** Device attach point (see DeviceAttach). */
    DeviceAttach attach = DeviceAttach::Pcie;

    /**
     * Model the L1 cache in front of the LFBs (memory-mapped
     * mechanisms). Off by default: the paper's microbenchmark
     * touches every line exactly once, so the figures are
     * cache-free by construction. Enable it together with an
     * addressPlan that has temporal locality (e.g. replayed
     * application address traces) — hits skip the device entirely,
     * which is also what produces the replay window's "skipped"
     * entries on the device side.
     */
    bool l1Enabled = false;
    CacheParams l1;

    /** @{ Memory and interconnect. */
    DramParams dram;
    PcieLinkParams pcie;
    DeviceParams device;
    /** @} */

    /** @{ User-level threading library. */
    Tick ctxSwitchCost = nanoseconds(50);
    /** @} */

    /** @{ Software-managed queue costs (host side). */
    Tick qEnqueueCost = nanoseconds(45);   //!< build+store descriptor
    Tick doorbellCost = nanoseconds(100);  //!< MMIO write, when needed
    Tick pollCost = nanoseconds(15);       //!< one empty CQ check
    Tick completionHandleCost = nanoseconds(30); //!< per reaped entry
    Tick responseReadCost = nanoseconds(60); //!< first touch of the
                                             //!< DMA-written buffer
    /** @} */

    /** @{ Workload (the paper's microbenchmark). */
    Mechanism mechanism = Mechanism::Prefetch;
    Backing backing = Backing::Device;
    std::uint32_t workCount = 250;  //!< work instrs per device access
    std::uint32_t batch = 1;        //!< reads per iteration (MLP)

    /**
     * Fraction of accesses that are line writes (0.0 = the paper's
     * read-only study; >0 exercises its future-work write path).
     * Writes are posted: memory-mapped stores retire from the store
     * buffer without blocking, and software-queue writes submit a
     * write descriptor without waiting for its completion.
     */
    double writeFraction = 0.0;

    /** Core-side cost of one posted line store. */
    Tick storeLatency = picoseconds(800);

    /**
     * Optional per-iteration plan override; lets application traces
     * (Fig. 10) drive the cores with varying batch sizes and work
     * counts. When unset, every iteration is {batch, workCount}.
     */
    std::function<IterationPlan(CoreId, ThreadId, std::uint64_t)> plan;

    /**
     * Optional address override: the line address each access
     * touches. When unset, every access targets a globally unique
     * line (no locality, as the paper's microbenchmark). Combine
     * with l1Enabled to model workloads with temporal locality.
     */
    std::function<Addr(CoreId, ThreadId, std::uint64_t iter,
                       std::uint32_t slot)>
        addressPlan;
    /** @} */

    /** @{ Open-loop serving mode (src/serve).
     *
     * With serve.arrival == Off (the default) the hooks below stay
     * unset and every closed-loop path is untouched. When enabled,
     * SimSystem constructs a ServeDriver and installs all four of
     * plan/addressPlan/admitGate/onRetire from it — they are not for
     * users to set directly in serving mode.
     */
    serve::ServeConfig serve;

    /**
     * Admission gate, consulted before a core starts iteration
     * @p iter of a thread/context. Returning true binds a request
     * to the (core, thread) lane (idempotent for an already-bound
     * iteration). Returning false means no request has arrived: the
     * lane parks and @p wake re-enters its admission path later.
     */
    std::function<bool(CoreId, ThreadId, std::uint64_t iter,
                       std::function<void()> wake)>
        admitGate;

    /** Completion hook: iteration @p iter of the lane retired. */
    std::function<void(CoreId, ThreadId, std::uint64_t iter)> onRetire;
    /** @} */

    /** @{ Measurement window. */
    Tick warmup = microseconds(60);
    Tick measure = microseconds(600);
    /** @} */

    /** Ticks to execute @p instrs work instructions at workIpc. */
    Tick
    workTicks(std::uint64_t instrs) const
    {
        const double cycles = double(instrs) / workIpc;
        return Tick(cycles * 1e12 / coreFreqHz);
    }

    /** Resolve the plan for one iteration. */
    IterationPlan
    planFor(CoreId core, ThreadId thread, std::uint64_t iter) const
    {
        if (plan)
            return plan(core, thread, iter);
        return IterationPlan{batch, workCount};
    }

    /** Instructions one iteration of @p p occupies in the ROB. */
    std::uint64_t
    iterationInstrs(const IterationPlan &p) const
    {
        return std::uint64_t(p.work) * p.batch + loopOverheadInstrs +
               2 * p.batch; // load + address-generation per access
    }

    /** Instructions per iteration of the default plan. */
    std::uint64_t
    iterationInstrs() const
    {
        return iterationInstrs(IterationPlan{batch, workCount});
    }

    /** Core time of the work portion of @p p. */
    Tick
    workTicks(const IterationPlan &p) const
    {
        return workTicks(std::uint64_t(p.work) * p.batch +
                         loopOverheadInstrs);
    }
};

} // namespace kmu

#endif // KMU_CORE_SYSTEM_CONFIG_HH
