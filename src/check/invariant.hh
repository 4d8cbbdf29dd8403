/**
 * @file
 * kmu-check: machine-checked model invariants.
 *
 * The timing model's whole output rests on queue-occupancy accounting
 * (10 LFBs/core, the 14-entry chip queue, the 48-entry DRAM path) and
 * on conservation laws (in-flight = issued - completed). A silent
 * bookkeeping bug produces plausible-but-wrong curves, so the model
 * asserts its own conservation laws at the point where each quantity
 * changes:
 *
 *  - KMU_INVARIANT(cond, fmt, ...): always compiled in, cheap (a
 *    predicted-untaken branch); use for laws whose violation makes
 *    continuing meaningless (occupancy past capacity, time running
 *    backwards, freeing what was never allocated).
 *  - KMU_MODEL_CHECK(cond, fmt, ...): heavier cross-checks (counter
 *    reconciliation, ordered-window scans). Compiled out entirely
 *    with -DKMU_NO_MODEL_CHECKS (CMake -DKMU_MODEL_CHECKS=OFF) and
 *    skippable at runtime via check::setModelChecks(false).
 *
 * By default a violation panics, naming the expression and site. A
 * test that wants to *prove* a broken model is caught installs a
 * check::ViolationTrap, which converts violations into a thrown
 * check::ViolationError instead (the state of the violated component
 * is unspecified afterwards — end the test there).
 */

#ifndef KMU_CHECK_INVARIANT_HH
#define KMU_CHECK_INVARIANT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace kmu
{
namespace check
{

/** Thrown by a ViolationTrap'd invariant failure. */
class ViolationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Central violation sink used by the KMU_INVARIANT/KMU_MODEL_CHECK
 * macros. Panics unless a ViolationTrap is active, in which case it
 * records the violation and throws ViolationError.
 */
[[gnu::cold]]
void reportViolation(const char *expr, const char *file, int line,
                     const std::string &message);

/** Total violations observed process-wide (trapped ones included). */
std::uint64_t violationCount();

namespace detail
{
// The model is single-threaded by construction (one EventQueue per
// SimSystem, driven from one OS thread), so a plain global suffices.
inline bool modelChecks = true;
} // namespace detail

/** Runtime switch for KMU_MODEL_CHECK (default on). An inline flag
 *  read: every model check on the hot path consults it. */
inline bool
modelChecksEnabled()
{
    return detail::modelChecks;
}

inline void
setModelChecks(bool enabled)
{
    detail::modelChecks = enabled;
}

/**
 * RAII scope that converts invariant violations into exceptions.
 * Single-threaded, non-reentrant — exactly one trap may be active.
 */
class ViolationTrap
{
  public:
    ViolationTrap();
    ~ViolationTrap();

    ViolationTrap(const ViolationTrap &) = delete;
    ViolationTrap &operator=(const ViolationTrap &) = delete;

    /** Violations caught by this trap. */
    std::uint64_t caught() const { return caughtCount; }

    /** Message of the most recent caught violation ("" if none). */
    const std::string &lastMessage() const { return lastMsg; }

  private:
    friend void reportViolation(const char *, const char *, int,
                                const std::string &);

    std::uint64_t caughtCount = 0;
    std::string lastMsg;
};

} // namespace check
} // namespace kmu

/**
 * Always-on conservation-law check.
 * Usage: KMU_INVARIANT(used <= cap, "occupancy %u over %u", used, cap);
 */
#define KMU_INVARIANT(cond, ...)                                        \
    do {                                                                \
        if (!(cond)) [[unlikely]] {                                     \
            ::kmu::check::reportViolation(                              \
                #cond, __FILE__, __LINE__,                              \
                ::kmu::csprintf(__VA_ARGS__));                          \
        }                                                               \
    } while (0)

/**
 * Heavier debug-time model check; compiled out under
 * KMU_NO_MODEL_CHECKS and skippable at runtime.
 */
#ifdef KMU_NO_MODEL_CHECKS
#define KMU_MODEL_CHECK(cond, ...)                                      \
    do {                                                                \
        (void)sizeof((cond));                                           \
    } while (0)
#else
#define KMU_MODEL_CHECK(cond, ...)                                      \
    do {                                                                \
        if (::kmu::check::modelChecksEnabled() && !(cond))              \
            [[unlikely]] {                                              \
            ::kmu::check::reportViolation(                              \
                #cond, __FILE__, __LINE__,                              \
                ::kmu::csprintf(__VA_ARGS__));                          \
        }                                                               \
    } while (0)
#endif

#endif // KMU_CHECK_INVARIANT_HH
