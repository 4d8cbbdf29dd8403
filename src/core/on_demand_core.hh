/**
 * @file
 * On-demand core model: unmodified software, out-of-order hardware.
 *
 * One or more hardware (SMT) contexts each run a software thread
 * performing demand loads followed by dependent work. The only
 * latency hiding available is the OoO window — younger iterations'
 * independent loads may issue while an older load is outstanding,
 * but only as long as the younger iteration's instructions fit in
 * the (per-context share of the) ROB — plus, with smtContexts > 1,
 * the ability of one context to execute work while another blocks
 * on a long-latency access (the paper's Section III observation).
 *
 * Modelled structure per context:
 *  - the ROB partitions evenly across contexts; at most
 *    floor(share / instructions-per-iteration) iterations (min 1)
 *    are in flight;
 *  - loads issue when their iteration enters the window (subject to
 *    a free LFB entry — the LFB is shared by all contexts) and
 *    complete after the memory-path latency;
 *  - posted writes occupy no LFB entry and never block;
 *  - work blocks execute in order within a context, and the
 *    execution resource serializes across contexts (one work block
 *    at a time, round-robin among ready contexts);
 *  - an iteration leaves the window when its work retires.
 *
 * With the default smtContexts = 1 this is the paper's Fig. 2
 * configuration and the DRAM baseline that normalizes every figure.
 */

#ifndef KMU_CORE_ON_DEMAND_CORE_HH
#define KMU_CORE_ON_DEMAND_CORE_HH

#include <vector>

#include "core/core_base.hh"

namespace kmu
{

class OnDemandCore : public CoreBase
{
  public:
    OnDemandCore(std::string name, EventQueue &queue, CoreId id,
                 const SystemConfig &cfg, IssueLine issue,
                 StatGroup *stat_parent);

    void start() override;

    /** Iterations of the *default* plan one context admits. */
    std::uint32_t maxInWindow() const;

    /** Hardware contexts this core runs. */
    std::uint32_t contexts() const
    {
        return std::uint32_t(ctxs.size());
    }

  private:
    /** Cached "<name>.serve_wake": per-admission wakeup. */
    const std::string serveWakeName = name() + ".serve_wake";

    struct IterRec
    {
        IterationPlan plan;
        std::uint64_t index;      //!< absolute iteration number
        std::uint64_t instrs;
        std::uint32_t fillsLeft;  //!< outstanding *read* fills
        std::uint32_t writes;     //!< posted-write slots
        bool ready = false;
    };

    /**
     * The in-flight iterations of one context, oldest first: a ring
     * sized once. Admission keeps a non-empty window within the ROB
     * share, so it never holds more than robShare over the smallest
     * iteration (one read, no work) — or one oversized iteration.
     */
    class Window
    {
      public:
        void init(std::size_t capacity) { recs.resize(capacity); }

        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }

        IterRec &front() { return recs[head]; }
        IterRec &back() { return (*this)[count - 1]; }

        /** The @p i-th oldest in-flight iteration. */
        IterRec &
        operator[](std::size_t i)
        {
            const std::size_t at = head + i;
            return recs[at < recs.size() ? at : at - recs.size()];
        }

        void
        push_back(const IterRec &rec)
        {
            kmuAssert(count < recs.size(),
                      "OoO window over its %zu-iteration bound",
                      recs.size());
            ++count;
            back() = rec;
        }

        void
        pop_front()
        {
            head = head + 1 < recs.size() ? head + 1 : 0;
            --count;
        }

      private:
        std::vector<IterRec> recs;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /** Per-SMT-context execution state. */
    struct Context
    {
        std::uint64_t nextIter = 0;   //!< next iteration to admit
        std::uint64_t oldestIter = 0; //!< iteration at window head
        std::uint64_t instrsInWindow = 0;
        Window window;
        bool issuing = false;         //!< issueSlot chain active
    };

    /** Admit iterations into @p ctx while its window has room. */
    void admitLoop(std::uint32_t ctx);

    /** Issue the load for (ctx, iteration, slot). */
    void issueSlot(std::uint32_t ctx, std::uint64_t iter,
                   std::uint32_t slot);

    /** A load of (ctx, iter) returned. */
    void onFill(std::uint32_t ctx, std::uint64_t iter);

    /** Start the next ready work block if the core is free. */
    void tryWork();

    std::uint64_t robShare;       //!< ROB entries per context
    std::vector<Context> ctxs;
    std::uint32_t workRotor = 0;  //!< round-robin work arbitration
    bool workBusy = false;        //!< a work block occupies the core
};

} // namespace kmu

#endif // KMU_CORE_ON_DEMAND_CORE_HH
