/**
 * @file
 * SimObject: common base for timed components.
 */

#ifndef KMU_SIM_SIM_OBJECT_HH
#define KMU_SIM_SIM_OBJECT_HH

#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event.hh"

namespace kmu
{

/**
 * Named component bound to an EventQueue, owning a StatGroup.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &queue,
              StatGroup *stat_parent = nullptr);
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return objName; }
    EventQueue &eventQueue() { return eq; }
    Tick curTick() const { return eq.curTick(); }
    StatGroup &stats() { return statGroup; }

    /**
     * Trace lane this component's records land on (usually the core
     * id it serves; 0 by default). Set once at system construction —
     * it only labels trace records, never affects timing.
     */
    std::uint16_t traceTrack() const { return track; }
    void setTraceTrack(std::uint16_t t) { track = t; }

  protected:
    /** Schedule @p event @p delay ticks from now. */
    void
    scheduleIn(Event *event, Tick delay)
    {
        eq.schedule(event, curTick() + delay);
    }

  private:
    std::string objName;
    EventQueue &eq;
    StatGroup statGroup;
    std::uint16_t track = 0;
};

} // namespace kmu

#endif // KMU_SIM_SIM_OBJECT_HH
