/**
 * @file
 * Process-pool executor for independent points of figure work.
 *
 * A figure sweep is a list of fully independent SimSystem runs — no
 * point reads another's state — and so are the application-trace
 * captures and the outage cells that feed two of the figures.
 * SweepRunner fans a list of (index -> result) closures across
 * `jobs` forked worker processes and merges the results back **by
 * index**, so a parallel run is byte-identical to the serial one:
 *
 *  - fork(2) workers inherit the parent's memory, so closures over
 *    SystemConfig (including its std::function plan members) need no
 *    serialization; only each point's result crosses back, as one
 *    length-prefixed frame holding an opaque payload. A RunResult
 *    point's payload is its bit-exact versioned wire encoding
 *    (core/run_result_wire.hh);
 *  - workers claim indices dynamically: each takes the next one with
 *    a fetch-add on a counter in a shared anonymous page mapped
 *    before the fork, so a worker that drew cheap points keeps
 *    drawing instead of idling behind one that drew expensive ones.
 *    Which process computes a point never changes its result, which
 *    is a pure function of its index;
 *  - a worker that dies (crash, OOM-kill, corrupt frame) is detected
 *    by pipe EOF + wait status; whatever it claimed but never
 *    reported is re-run in the parent, so results are complete
 *    whenever the points themselves are runnable;
 *  - jobs=1, a single point, or a platform without fork() takes the
 *    plain in-process serial path.
 *
 * Per-point wall time is measured in the worker and shipped in each
 * frame header, so the parent can report an honest serial-time
 * estimate (and thus speedup) without a second, serial run.
 */

#ifndef KMU_SWEEP_SWEEP_RUNNER_HH
#define KMU_SWEEP_SWEEP_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sim_system.hh"

namespace kmu::sweep
{

class SweepRunner
{
  public:
    /** Compute point @p index; must not depend on other points. */
    using PointFn = std::function<RunResult(std::size_t index)>;

    /** One point's result as opaque bytes. */
    using Payload = std::vector<std::uint8_t>;

    /** Compute point @p index as a payload; same contract as
     *  PointFn. */
    using PayloadFn = std::function<Payload(std::size_t index)>;

    /** Largest payload a worker frame may declare. A longer
     *  declared length marks the stream corrupt (the worker is
     *  treated as dead) rather than sizing an allocation. */
    static constexpr std::size_t maxPayloadBytes = std::size_t(1)
                                                   << 24;

    /** Self-measurement of one run() or runPayloads() call. */
    struct Stats
    {
        double wallSeconds = 0.0;   //!< whole run(), parent clock
        double serialSeconds = 0.0; //!< sum of per-point wall times
        std::size_t points = 0;
        unsigned jobs = 1;          //!< workers actually used
        unsigned workersDied = 0;   //!< abnormal worker exits
        std::size_t pointsRecovered = 0; //!< re-run in the parent

        /** @{ Event-kernel totals summed over the points' RunResult
         *  self-measurement (events serviced, wall seconds inside
         *  EventQueue::run). Their ratio is the kernel events/sec
         *  for this sweep's workload. Zero for payload runs. */
        std::uint64_t kernelEvents = 0;
        double kernelSeconds = 0.0;
        /** @} */
    };

    /**
     * Execute points 0..count-1 and return their results in index
     * order. @p jobs == 0 means "one per online CPU"; the effective
     * worker count is clamped to @p count.
     */
    std::vector<RunResult> run(std::size_t count, const PointFn &fn,
                               unsigned jobs,
                               Stats *stats = nullptr);

    /** run() for points whose results are byte payloads (at most
     *  maxPayloadBytes each when computed in a worker). */
    std::vector<Payload> runPayloads(std::size_t count,
                                     const PayloadFn &fn,
                                     unsigned jobs,
                                     Stats *stats = nullptr);

    /** Whether this platform can fork worker processes at all. */
    static bool forkSupported();

    /** True while executing inside a forked worker (for tests). */
    static bool inWorker();

    /** Parse a jobs=N value: decimal, at most 4096; 0 means one
     *  worker per online CPU. */
    static bool parseJobs(const std::string &text, unsigned &jobs);

    /** Jobs requested via KMU_JOBS (malformed/absent -> 1). */
    static unsigned envJobs();

    /** Jobs a bench's command line requests: its last well-formed
     *  jobs=N, else envJobs(). Every other argument is left for the
     *  bench's own option check. */
    static unsigned argvJobs(int argc, char **argv);
};

} // namespace kmu::sweep

#endif // KMU_SWEEP_SWEEP_RUNNER_HH
