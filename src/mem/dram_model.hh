/**
 * @file
 * Host DRAM model.
 *
 * The DRAM baseline in the paper is an ordinary DDR4 channel behind
 * the on-chip memory controller. Its distinguishing property for this
 * study is that the chip-level queue on the DRAM path is deep (the
 * paper verified at least 48 simultaneous outstanding accesses), so
 * DRAM never exhibits the 14-entry plateau that the PCIe path does.
 *
 * The model is a fixed loaded latency gated by a deep UncoreQueue;
 * bank-level detail is irrelevant to the paper's experiments, which
 * touch each line exactly once with no locality.
 */

#ifndef KMU_MEM_DRAM_MODEL_HH
#define KMU_MEM_DRAM_MODEL_HH

#include <utility>

#include "mem/uncore_queue.hh"
#include "sim/sim_object.hh"

namespace kmu
{

/** Static parameters of the DRAM path. */
struct DramParams
{
    Tick latency = 60'000;       //!< ps: loaded access latency
    std::uint32_t queueDepth = 48; //!< chip-level DRAM-path queue
};

class DramModel : public SimObject
{
  public:
    DramModel(std::string name, EventQueue &queue, DramParams params,
              StatGroup *stat_parent);

    const DramParams &params() const { return cfg; }

    /**
     * Read one cache line. @p cb runs when the data is on-chip.
     * Queueing behind the 48-entry path is modelled; address is
     * accepted for interface symmetry and stats only.
     */
    template <typename F>
    void
    access(Addr line, F &&cb)
    {
        const std::uint64_t span = beginRead(line);
        pathQueue.acquire([this, span, cb = std::forward<F>(cb)]() mutable {
            eventQueue().scheduleLambda(
                curTick() + cfg.latency,
                [this, span, cb = std::move(cb)]() mutable {
                    endRead(span);
                    cb();
                },
                EventPriority::DeviceResponse, fillName);
        });
    }

    /** Chip-level queue for the DRAM path (exposed for tests). */
    UncoreQueue &queue() { return pathQueue; }

    Counter reads;

  private:
    /** Cached "<name>.fill": scheduled once per read. */
    const std::string fillName = name() + ".fill";

    /** Book one read; returns its trace span id. */
    std::uint64_t beginRead(Addr line);

    /** The read's data is on-chip: free its path-queue slot. */
    void endRead(std::uint64_t span);

    DramParams cfg;
    UncoreQueue pathQueue;
};

} // namespace kmu

#endif // KMU_MEM_DRAM_MODEL_HH
