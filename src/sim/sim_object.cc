#include "sim/sim_object.hh"

namespace kmu
{

SimObject::SimObject(std::string name, EventQueue &queue,
                     StatGroup *stat_parent)
    : objName(std::move(name)), eq(queue),
      statGroup(objName, stat_parent)
{
}

} // namespace kmu
