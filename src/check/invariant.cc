#include "check/invariant.hh"

namespace kmu
{
namespace check
{

namespace
{

// The model is single-threaded by construction (one EventQueue per
// SimSystem, driven from one OS thread), so plain globals suffice.
std::uint64_t violations = 0;
ViolationTrap *activeTrap = nullptr;

} // anonymous namespace

void
reportViolation(const char *expr, const char *file, int line,
                const std::string &message)
{
    violations++;
    if (activeTrap) {
        activeTrap->caughtCount++;
        activeTrap->lastMsg =
            csprintf("model invariant '%s' violated at %s:%d: %s",
                     expr, file, line, message.c_str());
        throw ViolationError(activeTrap->lastMsg);
    }
    panic("model invariant '%s' violated at %s:%d: %s", expr, file,
          line, message.c_str());
}

std::uint64_t
violationCount()
{
    return violations;
}

ViolationTrap::ViolationTrap()
{
    kmuAssert(activeTrap == nullptr,
              "nested check::ViolationTrap is not supported");
    activeTrap = this;
}

ViolationTrap::~ViolationTrap()
{
    activeTrap = nullptr;
}

} // namespace check
} // namespace kmu
