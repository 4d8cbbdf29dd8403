/**
 * @file
 * SimChecker: periodic whole-model invariant sweeps.
 *
 * The KMU_INVARIANT/KMU_MODEL_CHECK call sites in the components
 * validate each state *transition*; the SimChecker validates global
 * conservation laws that no single transition can see (e.g. the sum
 * of per-core LFB occupancy against chip-queue occupancy, or stat
 * counters reconciling with live structure sizes). Components — or
 * the SimSystem that assembles them — register named check functions;
 * the checker sweeps them at a fixed simulated-time interval.
 *
 * The sweep event only reschedules itself while other events remain,
 * so attaching a checker never keeps an otherwise-drained event queue
 * alive (queue-drain termination still works).
 *
 * Header-only: SimChecker sits above kmu_sim in the layering, while
 * the invariant core (check/invariant.hh) sits below it — keeping
 * this class inline avoids a dependency cycle between the two
 * libraries.
 */

#ifndef KMU_CHECK_SIM_CHECKER_HH
#define KMU_CHECK_SIM_CHECKER_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.hh"
#include "sim/sim_object.hh"

namespace kmu
{

class SimChecker : public SimObject
{
  public:
    /** A registered check: calls KMU_INVARIANT/KMU_MODEL_CHECK. */
    using CheckFn = std::function<void()>;

    SimChecker(std::string name, EventQueue &queue, Tick interval,
               StatGroup *stat_parent)
        : SimObject(std::move(name), queue, stat_parent),
          sweepsRun(stats(), "sweeps", "invariant sweeps executed"),
          checksRun(stats(), "checks", "individual checks executed"),
          sweepEvent(
              this->name() + ".sweep", [this]() { sweep(); },
              EventPriority::Stats),
          sweepInterval(interval)
    {
        kmuAssert(interval > 0, "checker interval must be positive");
    }

    ~SimChecker() override
    {
        if (sweepEvent.scheduled())
            eventQueue().deschedule(&sweepEvent);
    }

    /** Register a named invariant-sweep function. */
    void
    addCheck(std::string label, CheckFn fn)
    {
        kmuAssert(fn != nullptr, "null check function");
        checks.emplace_back(std::move(label), std::move(fn));
    }

    /** Run every registered check once, immediately. */
    void
    runChecks()
    {
        for (auto &check : checks) {
            check.second();
            ++checksRun;
        }
    }

    /** Begin periodic sweeps every interval ticks from now. */
    void
    start()
    {
        if (!sweepEvent.scheduled())
            scheduleIn(&sweepEvent, sweepInterval);
    }

    std::size_t checkCount() const { return checks.size(); }

    Counter sweepsRun;
    Counter checksRun;

  private:
    void
    sweep()
    {
        runChecks();
        ++sweepsRun;
        // Reschedule only while other work remains: a lone checker
        // event must not keep a drained queue spinning forever.
        if (eventQueue().size() > 0)
            scheduleIn(&sweepEvent, sweepInterval);
    }

    std::vector<std::pair<std::string, CheckFn>> checks;
    CallbackEvent sweepEvent;
    Tick sweepInterval;
};

} // namespace kmu

#endif // KMU_CHECK_SIM_CHECKER_HH
