/**
 * @file
 * CPU-contention helper for realtime_contention_check.cmake: copies
 * stdin to stdout while keeping one CPU busy, and exits when stdin
 * closes. Chained after a test binary in an execute_process
 * pipeline, N copies load N CPUs for exactly as long as the tests
 * run, and the tests' output passes through unchanged. A fixed
 * safety deadline, the gate's ctest TIMEOUT, ends a copy that
 * outlives its pipeline (a hung test binary orphaned when ctest
 * kills the script).
 *
 * The loop is always runnable but calls sched_yield between chunks
 * of a few hundred microseconds. The host and device threads wait in
 * sched_yield loops too; against loops that never yield, each of
 * their yields costs a whole time slice, and 20 repetitions of the
 * gate's suites took ~260 s instead of ~25 s on a 4-vCPU host. The
 * yielding loops still deschedule the device thread often enough
 * that a runtime without the starvation-aware watchdog fails 1-3 of
 * every 20 repetitions.
 *
 * Usage: kmu_busy_pipe
 */

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>

int
main()
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    const int flags = fcntl(STDIN_FILENO, F_GETFL);
    if (flags < 0 || fcntl(STDIN_FILENO, F_SETFL, flags | O_NONBLOCK) < 0)
        return 2;

    volatile std::uint64_t sink = 0;
    char buf[4096];
    while (std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < (1 << 16); ++i)
            sink = sink + 1;
        sched_yield();
        const ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
        if (n == 0)
            return 0; // upstream finished
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                continue;
            return 2;
        }
        for (ssize_t off = 0; off < n;) {
            const ssize_t w = write(STDOUT_FILENO, buf + off,
                                    std::size_t(n - off));
            if (w < 0 && errno != EINTR)
                return 2;
            off += w > 0 ? w : 0;
        }
    }
    return 0;
}
