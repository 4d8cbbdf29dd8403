/**
 * @file
 * Thread-safety capability annotations (clang -Wthread-safety).
 *
 * The concurrency discipline of this codebase is not lock-based: the
 * cross-thread structures (SpscRing, SwQueuePair, the emulated
 * device's doorbell state) are single-owner-per-side lock-free
 * protocols. Clang's thread-safety analysis still applies through
 * *role capabilities*: a ThreadRole is a zero-size capability token
 * standing for "I am the producer side" / "I am the host side", a
 * function that exercises a role declares KMU_REQUIRES(role), and the
 * function that legitimately embodies the role asserts it with a
 * scoped RoleGuard. Any new call path that reaches a role-gated
 * function without declaring the role fails the clang build
 * (-Werror=thread-safety-analysis on the CI clang legs), which is the
 * compile-time cousin of what TSan checks dynamically.
 *
 * On gcc (which has no thread-safety analysis) every macro expands to
 * nothing and ThreadRole/RoleGuard are empty inline types, so the
 * annotations are zero-runtime-cost everywhere.
 *
 * KMU_ATOMIC_ROLE(...) is special: it always expands to nothing, but
 * tools/kmu_analyze requires it (or KMU_GUARDED_BY) on every
 * std::atomic field in the tree, so each shared atomic carries a
 * machine-checked statement of which side writes it and which side
 * reads it.
 */

#ifndef KMU_COMMON_THREAD_ANNOTATIONS_HH
#define KMU_COMMON_THREAD_ANNOTATIONS_HH

#include <atomic>
#include <cstdint>

#if defined(__clang__) && defined(__has_attribute)
#  if __has_attribute(capability)
#    define KMU_THREAD_ANNOTATION(x) __attribute__((x))
#  endif
#endif
#ifndef KMU_THREAD_ANNOTATION
#  define KMU_THREAD_ANNOTATION(x) // gcc: no thread-safety analysis
#endif

/** Class attribute: the type is a capability (role, lock, ...). */
#define KMU_CAPABILITY(x) KMU_THREAD_ANNOTATION(capability(x))

/** Class attribute: RAII type that holds a capability for its scope. */
#define KMU_SCOPED_CAPABILITY KMU_THREAD_ANNOTATION(scoped_lockable)

/** Field attribute: reads/writes require holding @p x. */
#define KMU_GUARDED_BY(x) KMU_THREAD_ANNOTATION(guarded_by(x))

/** Field attribute: the pointee is guarded by @p x. */
#define KMU_PT_GUARDED_BY(x) KMU_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function attribute: caller must hold the capabilities. */
#define KMU_REQUIRES(...) \
    KMU_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function attribute: caller must hold them at least shared. */
#define KMU_REQUIRES_SHARED(...) \
    KMU_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function attribute: the function acquires the capabilities. */
#define KMU_ACQUIRE(...) \
    KMU_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function attribute: the function releases the capabilities. */
#define KMU_RELEASE(...) \
    KMU_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function attribute: acquires on a true return. */
#define KMU_TRY_ACQUIRE(...) \
    KMU_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function attribute: must be called *without* the capabilities. */
#define KMU_EXCLUDES(...) KMU_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function attribute: returns a reference to the capability. */
#define KMU_RETURN_CAPABILITY(x) KMU_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch for functions the analysis cannot model (document
 *  why at every use). */
#define KMU_NO_THREAD_SAFETY_ANALYSIS \
    KMU_THREAD_ANNOTATION(no_thread_safety_analysis)

/**
 * Ordering-contract marker for lock-free atomic fields.
 *
 * A std::atomic member *is* the synchronization device, so
 * KMU_GUARDED_BY would be a lie (no capability protects it; its own
 * memory orders do). Instead each atomic field states its contract:
 *
 *   std::atomic<std::size_t> head
 *       KMU_ATOMIC_ROLE(producer_writes, both_read) {0};
 *
 * Expands to nothing on every compiler; tools/kmu_analyze fails the
 * build when an atomic field carries neither this marker nor
 * KMU_GUARDED_BY (rule `capability`).
 */
#define KMU_ATOMIC_ROLE(...)

namespace kmu
{

/**
 * Increment a counter whose KMU_ATOMIC_ROLE names a single writer: a
 * relaxed load and store instead of a locked read-modify-write. Only
 * the owning thread may call it; readers elsewhere still see whole
 * values, each one a count the writer reached.
 */
inline void
bumpSingleWriter(std::atomic<std::uint64_t> &counter)
{
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

/**
 * Zero-size capability token for a single-owner role (producer side,
 * consumer side, host side, device side). Declared as a (public)
 * member of the structure whose protocol defines the role; gated
 * functions declare KMU_REQUIRES(role) and legitimate embodiments
 * assert it with a RoleGuard.
 */
class KMU_CAPABILITY("role") ThreadRole
{
  public:
    constexpr ThreadRole() = default;

    ThreadRole(const ThreadRole &) = delete;
    ThreadRole &operator=(const ThreadRole &) = delete;

    /** Assert the role for manual (non-scoped) regions. */
    void acquire() const KMU_ACQUIRE() {}
    void release() const KMU_RELEASE() {}
};

/**
 * Scope-bound role assertion: constructing a RoleGuard states "this
 * scope runs as the named role". Purely a compile-time token — no
 * code is generated — but clang now verifies every role-gated call
 * in the scope against it.
 */
class KMU_SCOPED_CAPABILITY RoleGuard
{
  public:
    explicit RoleGuard(const ThreadRole &role) KMU_ACQUIRE(role)
    {
        (void)role;
    }
    ~RoleGuard() KMU_RELEASE() {}

    RoleGuard(const RoleGuard &) = delete;
    RoleGuard &operator=(const RoleGuard &) = delete;
};

} // namespace kmu

#endif // KMU_COMMON_THREAD_ANNOTATIONS_HH
