/**
 * @file
 * Two-pass figure driver: collect points, execute in parallel,
 * render tables — with CSVs byte-identical to a serial run.
 *
 * A figure bench is a deterministic loop nest that builds
 * SystemConfigs and formats their RunResults into a Table. To
 * parallelize it without restructuring every bench into explicit
 * batch submissions, the same body runs twice:
 *
 *  1. COLLECT — run()/baseline()/normalized() record the config and
 *     return inert dummies (emit() and stdout are suppressed);
 *  2. the recorded points execute on a SweepRunner worker pool,
 *     whose workers claim them in whatever order they free up;
 *  3. RENDER — the body runs again; the k-th run() call returns the
 *     k-th recorded point's result, baselines resolve from the memo.
 *
 * Determinism argument: the body's control flow may depend on its
 * loop constants but never on result *values* (results only feed
 * formatting), so both passes make the same call sequence. Each
 * point is a pure function of its config, computed by the same code
 * from the same process image, SimSystem seeding and FP environment
 * whichever worker claims it, and results merge by point index, so
 * the claim order never reaches a cell. kmuAssert guards the
 * sequence against a body that violates this contract.
 *
 * The plan-matched DRAM baseline of each workload shape is a sweep
 * point like any other: computed once on the pool and broadcast to
 * every cell that normalizes against it.
 */

#ifndef KMU_SWEEP_FIGURE_RUNNER_HH
#define KMU_SWEEP_FIGURE_RUNNER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/sim_system.hh"
#include "sweep/sweep_runner.hh"

namespace kmu
{

class FigureRunner
{
  public:
    enum class Phase
    {
        Collect, //!< record configs, return dummies
        Render   //!< replay the body against computed results
    };

    /** Result of one configuration (a sweep point). */
    RunResult run(const SystemConfig &cfg);

    /**
     * The plan-matched DRAM baseline for cfg's workload shape,
     * computed once per distinct shape (see baselineKey()).
     * Configs carrying a plan/addressPlan closure are uncacheable
     * (closures have no identity) and get a point per call site.
     */
    const RunResult &baseline(const SystemConfig &cfg);

    /** Normalized work IPC against the cached baseline. */
    double normalized(const SystemConfig &cfg);

    /** Print the table and write its CSV (render pass only). */
    void emit(const Table &table, const std::string &csvName);

    Phase phase() const { return ph; }
    std::size_t pointCount() const { return points.size(); }
    std::size_t baselineCount() const { return keyed.size(); }

    /** @{ Pass driver, used by figureMain() and the tests. */
    void beginCollect();
    sweep::SweepRunner::Stats execute(unsigned jobs);
    void beginRender();
    /** @} */

    /**
     * Memo key of the baseline cfg maps to: every config field that
     * shapes a single-core, single-thread, on-demand, DRAM-backed
     * run of cfg's workload. Doubles enter as exact bit patterns —
     * adjacent write fractions never collapse into one bucket.
     */
    static std::string baselineKey(const SystemConfig &cfg);

  private:
    std::size_t enqueue(const SystemConfig &cfg);
    const RunResult &nextSequenced(const SystemConfig &cfg,
                                   const RunResult &dummy);

    Phase ph = Phase::Collect;
    std::vector<SystemConfig> points;
    std::vector<RunResult> results;
    std::vector<std::size_t> order; //!< point index per sequenced call
    std::size_t cursor = 0;         //!< render-pass call position
    std::map<std::string, std::size_t> keyed; //!< baselineKey -> point
    bool executed = false;
};

/**
 * Shared main() of every figure bench: parses jobs=N/bench_json=
 * (defaults: KMU_JOBS, KMU_BENCH_JSON or BENCH_sweep.json), runs
 * @p body through collect/execute/render, appends the figure's
 * self-measurement record, and prints a perf summary to stderr.
 * Inputs a body needs before its collect pass (fig10's application
 * traces) are computed ahead of this call, on a SweepRunner pool
 * sized by SweepRunner::argvJobs().
 */
int figureMain(int argc, char **argv, const std::string &figure,
               const std::function<void(FigureRunner &)> &body);

} // namespace kmu

#endif // KMU_SWEEP_FIGURE_RUNNER_HH
