/**
 * @file
 * Sanitizer shim: fiber-switch annotations for ASan and TSan, and
 * ASan poisoning of recycled arena memory.
 *
 * The hand-rolled stack switch in ult/context_switch.S is invisible
 * to the sanitizer runtimes: ASan tracks one stack region per thread
 * and interprets a foreign %rsp as stack corruption, while TSan keeps
 * its shadow call stack per OS thread and crashes (or reports bogus
 * races) when the stack pointer teleports. Both runtimes therefore
 * export explicit fiber hooks:
 *
 *  - ASan/common: __sanitizer_start_switch_fiber() must run just
 *    before leaving a stack and __sanitizer_finish_switch_fiber()
 *    first thing on the destination stack;
 *  - TSan: a fiber context object per stack, created with
 *    __tsan_create_fiber() and selected with __tsan_switch_to_fiber()
 *    immediately before each switch.
 *
 * This header wraps those hooks behind kmuSan*() inline functions
 * that compile to nothing in unsanitized builds, so the ULT layer
 * can annotate unconditionally. Detection covers both GCC
 * (__SANITIZE_ADDRESS__/__SANITIZE_THREAD__) and Clang
 * (__has_feature).
 */

#ifndef KMU_COMMON_SANITIZER_HH
#define KMU_COMMON_SANITIZER_HH

#include <cstddef>

#if defined(__has_feature)
#  if __has_feature(address_sanitizer)
#    define KMU_ASAN_ENABLED 1
#  endif
#  if __has_feature(thread_sanitizer)
#    define KMU_TSAN_ENABLED 1
#  endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(KMU_ASAN_ENABLED)
#  define KMU_ASAN_ENABLED 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(KMU_TSAN_ENABLED)
#  define KMU_TSAN_ENABLED 1
#endif

#ifndef KMU_ASAN_ENABLED
#  define KMU_ASAN_ENABLED 0
#endif
#ifndef KMU_TSAN_ENABLED
#  define KMU_TSAN_ENABLED 0
#endif

#if KMU_ASAN_ENABLED
#  include <sanitizer/asan_interface.h>
#  include <sanitizer/common_interface_defs.h>
#endif
#if KMU_TSAN_ENABLED
#  include <sanitizer/tsan_interface.h>
#endif

namespace kmu
{

/**
 * Announce an imminent stack switch to ASan.
 *
 * @param fake_stack_save where ASan parks the departing context's
 *        fake-stack handle; pass nullptr when the departing context
 *        will never run again (lets ASan free the fake stack).
 * @param bottom lowest address of the destination stack.
 * @param size   destination stack size in bytes.
 */
inline void
kmuSanStartSwitchFiber(void **fake_stack_save, const void *bottom,
                       std::size_t size)
{
#if KMU_ASAN_ENABLED
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
    (void)fake_stack_save;
    (void)bottom;
    (void)size;
#endif
}

/**
 * Complete a stack switch; must run first thing on the destination
 * stack.
 *
 * @param fake_stack_save handle saved when this stack was last left
 *        (nullptr on a stack's first activation).
 * @param bottom_old out: lowest address of the stack just departed.
 * @param size_old   out: size of the stack just departed.
 */
inline void
kmuSanFinishSwitchFiber(void *fake_stack_save, const void **bottom_old,
                        std::size_t *size_old)
{
#if KMU_ASAN_ENABLED
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old,
                                    size_old);
#else
    (void)fake_stack_save;
    if (bottom_old)
        *bottom_old = nullptr;
    if (size_old)
        *size_old = 0;
#endif
}

/**
 * Clear ASan shadow poison over a retired fiber stack.
 *
 * Frames that ran on a fiber stack leave redzone poison in its
 * shadow; munmap() does not clear shadow, so a later mmap() reusing
 * the address range would inherit stale poison and fault on the
 * first legitimate write. Call when a stack region is released (and
 * defensively when one is allocated).
 */
inline void
kmuSanUnpoisonStack(const void *bottom, std::size_t size)
{
#if KMU_ASAN_ENABLED
    __asan_unpoison_memory_region(bottom, size);
#else
    (void)bottom;
    (void)size;
#endif
}

/**
 * Mark [addr, addr + size) unaddressable for ASan, so any later read
 * or write there is reported as a use-after-poison. Used for memory
 * that stays allocated but is logically dead, such as a recycled
 * event-arena slot on its freelist.
 */
inline void
kmuSanPoisonRegion(const void *addr, std::size_t size)
{
#if KMU_ASAN_ENABLED
    __asan_poison_memory_region(addr, size);
#else
    (void)addr;
    (void)size;
#endif
}

/** Make a region poisoned by kmuSanPoisonRegion() addressable again. */
inline void
kmuSanUnpoisonRegion(const void *addr, std::size_t size)
{
#if KMU_ASAN_ENABLED
    __asan_unpoison_memory_region(addr, size);
#else
    (void)addr;
    (void)size;
#endif
}

/** Create a TSan fiber context; returns nullptr when TSan is off. */
inline void *
kmuSanCreateFiber()
{
#if KMU_TSAN_ENABLED
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

/** Destroy a TSan fiber context (never the currently active one). */
inline void
kmuSanDestroyFiber(void *fiber)
{
#if KMU_TSAN_ENABLED
    if (fiber)
        __tsan_destroy_fiber(fiber);
#else
    (void)fiber;
#endif
}

/** TSan context of the calling thread/fiber (nullptr when off). */
inline void *
kmuSanCurrentFiber()
{
#if KMU_TSAN_ENABLED
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

/** Select the TSan context to run after the next stack switch. */
inline void
kmuSanSwitchToFiber(void *fiber)
{
#if KMU_TSAN_ENABLED
    if (fiber)
        __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

/** Attach a debug name to a TSan fiber context. */
inline void
kmuSanSetFiberName(void *fiber, const char *name)
{
#if KMU_TSAN_ENABLED
    if (fiber)
        __tsan_set_fiber_name(fiber, name);
#else
    (void)fiber;
    (void)name;
#endif
}

} // namespace kmu

#endif // KMU_COMMON_SANITIZER_HH
