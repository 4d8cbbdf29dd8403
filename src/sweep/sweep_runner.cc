#include "sweep/sweep_runner.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define KMU_SWEEP_HAVE_FORK 1
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define KMU_SWEEP_HAVE_FORK 0
#endif

#include "common/logging.hh"
#include "core/run_result_wire.hh"

namespace kmu::sweep
{

namespace
{

bool inWorkerFlag = false;

using Clock = std::chrono::steady_clock;
using Payload = SweepRunner::Payload;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Computes point @p index's payload and sets @p kernelSeconds to
 *  the host time its event kernel ran. Host timing rides in the
 *  frame header, never inside a payload (which must stay a pure
 *  function of the point). */
using Producer =
    std::function<Payload(std::size_t index, double &kernelSeconds)>;

#if KMU_SWEEP_HAVE_FORK

/** Frame on a worker pipe: four 8-byte header words (index, point
 *  wall ns, kernel wall ns, payload length), then the payload. */
constexpr std::size_t frameHeaderWords = 4;
constexpr std::size_t frameHeaderBytes = frameHeaderWords * 8;

bool
writeAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += std::size_t(n);
    }
    return true;
}

using ClaimCounter = std::atomic<std::uint64_t>;
static_assert(ClaimCounter::is_always_lock_free,
              "the claim counter is shared across processes");

/** Child body: claim the next index until none is left, frame each
 *  result out. */
[[noreturn]] void
workerMain(int fd, ClaimCounter &next, std::size_t count,
           const Producer &produce)
{
    inWorkerFlag = true;
    std::vector<std::uint8_t> frame;
    for (;;) {
        const std::uint64_t index = next.fetch_add(1);
        if (index >= count)
            break;
        const auto t0 = Clock::now();
        double kernelSeconds = 0.0;
        const Payload payload = produce(std::size_t(index),
                                        kernelSeconds);
        const std::uint64_t header[frameHeaderWords] = {
            index,
            std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count()),
            std::uint64_t(kernelSeconds * 1e9), payload.size()};
        frame.resize(frameHeaderBytes + payload.size());
        std::memcpy(frame.data(), header, frameHeaderBytes);
        if (!payload.empty())
            std::memcpy(frame.data() + frameHeaderBytes,
                        payload.data(), payload.size());
        if (!writeAll(fd, frame.data(), frame.size()))
            ::_exit(2); // parent vanished; nothing useful left
    }
    ::close(fd);
    ::_exit(0);
}

struct Worker
{
    pid_t pid = -1;
    int fd = -1;                   //!< -1 once drained or distrusted
    std::vector<std::uint8_t> buf; //!< unparsed pipe bytes
    bool corrupt = false;
};

/**
 * Move every complete frame at the front of @p w's buffer into
 * @p out. Returns false on a corrupt stream: an index out of range
 * or already reported, or a declared length past maxPayloadBytes.
 */
bool
takeFrames(Worker &w, std::vector<Payload> &out,
           std::vector<bool> &have, SweepRunner::Stats &st)
{
    std::size_t off = 0;
    bool ok = true;
    while (w.buf.size() - off >= frameHeaderBytes) {
        std::uint64_t header[frameHeaderWords] = {};
        std::memcpy(header, w.buf.data() + off, frameHeaderBytes);
        const std::uint64_t index = header[0];
        const std::uint64_t len = header[3];
        if (index >= out.size() || have[index] ||
            len > SweepRunner::maxPayloadBytes) {
            ok = false;
            break;
        }
        if (w.buf.size() - off - frameHeaderBytes < len)
            break; // the rest of this frame is still in the pipe
        const std::uint8_t *p = w.buf.data() + off + frameHeaderBytes;
        out[index].assign(p, p + len);
        have[index] = true;
        st.serialSeconds += double(header[1]) * 1e-9;
        st.kernelSeconds += double(header[2]) * 1e-9;
        off += frameHeaderBytes + std::size_t(len);
    }
    w.buf.erase(w.buf.begin(), w.buf.begin() + std::ptrdiff_t(off));
    return ok;
}

/**
 * Fan the points out over @p jobs forked workers that claim indices
 * from a shared counter, and collect every reported payload into
 * @p out / @p have. Returns false (having forked nothing) when the
 * shared counter cannot be mapped.
 */
bool
runForked(std::size_t count, const Producer &produce, unsigned jobs,
          std::vector<Payload> &out, std::vector<bool> &have,
          SweepRunner::Stats &st)
{
    // The claim counter lives in a shared anonymous page mapped
    // before the fork, so every worker increments the same word. It
    // is trivially destructible: unmapping the page ends it.
    void *page = ::mmap(nullptr, sizeof(ClaimCounter),
                        PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED)
        return false;
    // kmu-analyze: allow(raw-new)
    ClaimCounter *next = ::new (page) ClaimCounter(0);

    // Inherited stdio buffers would be flushed once per worker on a
    // library _exit path; make them empty before forking.
    std::fflush(nullptr);

    std::vector<Worker> workers;
    workers.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) {
        int fds[2];
        if (::pipe(fds) != 0)
            fatal("sweep: pipe failed: %s", std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0) {
            // Can't grow the pool: the others claim this worker's
            // share.
            ::close(fds[0]);
            ::close(fds[1]);
            st.workersDied++;
            continue;
        }
        if (pid == 0) {
            ::close(fds[0]);
            for (const Worker &other : workers)
                ::close(other.fd);
            workerMain(fds[1], *next, count, produce);
        }
        ::close(fds[1]);
        workers.push_back(Worker{pid, fds[0], {}, false});
    }

    // Drain every worker pipe until EOF, parsing complete frames as
    // they arrive (workers block on a full pipe otherwise).
    std::vector<struct pollfd> pfds;
    std::vector<Worker *> owner;
    std::vector<std::uint8_t> chunk(std::size_t(1) << 16);
    for (;;) {
        pfds.clear();
        owner.clear();
        for (Worker &w : workers) {
            if (w.fd >= 0) {
                pfds.push_back(pollfd{w.fd, POLLIN, 0});
                owner.push_back(&w);
            }
        }
        if (pfds.empty())
            break;
        if (::poll(pfds.data(), nfds_t(pfds.size()), -1) < 0) {
            if (errno == EINTR)
                continue;
            fatal("sweep: poll failed: %s", std::strerror(errno));
        }
        for (std::size_t p = 0; p < pfds.size(); ++p) {
            if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Worker &w = *owner[p];
            const ssize_t n = ::read(w.fd, chunk.data(), chunk.size());
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                fatal("sweep: read failed: %s", std::strerror(errno));
            }
            if (n > 0) {
                w.buf.insert(w.buf.end(), chunk.data(),
                             chunk.data() + n);
                if (takeFrames(w, out, have, st))
                    continue;
                // Corrupt stream: stop trusting this worker; what
                // it claimed but did not report is re-run in the
                // parent.
                w.corrupt = true;
                ::kill(w.pid, SIGKILL);
            }
            ::close(w.fd);
            w.fd = -1;
        }
    }

    for (const Worker &w : workers) {
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(w.pid, &status, 0);
        } while (r < 0 && errno == EINTR);
        if (w.corrupt || (r == w.pid && !(WIFEXITED(status) &&
                                          WEXITSTATUS(status) == 0)))
            st.workersDied++;
    }
    ::munmap(page, sizeof(ClaimCounter));
    return true;
}

#endif // KMU_SWEEP_HAVE_FORK

/** Run points 0..count-1 and return their payloads by index. */
std::vector<Payload>
runPool(std::size_t count, const Producer &produce, unsigned jobs,
        SweepRunner::Stats &st)
{
    const auto wall0 = Clock::now();
    st.points = count;
    std::vector<Payload> out(count);
    std::vector<bool> have(count, false);

#if KMU_SWEEP_HAVE_FORK
    if (jobs == 0) {
        const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
        jobs = online > 0 ? unsigned(online) : 1u;
    }
    if (jobs > count)
        jobs = unsigned(count);
    if (jobs > 1 && runForked(count, produce, jobs, out, have, st))
        st.jobs = jobs;
#else
    (void)jobs;
#endif

    // The serial path, and the recovery path for whatever a dead (or
    // never-forked) worker claimed but never reported: identical
    // results, just slower.
    for (std::size_t i = 0; i < count; ++i) {
        if (have[i])
            continue;
        const auto t0 = Clock::now();
        double kernelSeconds = 0.0;
        out[i] = produce(i, kernelSeconds);
        st.serialSeconds += secondsSince(t0);
        st.kernelSeconds += kernelSeconds;
        if (st.jobs > 1)
            st.pointsRecovered++;
    }
    st.wallSeconds = secondsSince(wall0);
    return out;
}

} // anonymous namespace

bool
SweepRunner::forkSupported()
{
    return KMU_SWEEP_HAVE_FORK != 0;
}

bool
SweepRunner::inWorker()
{
    return inWorkerFlag;
}

bool
SweepRunner::parseJobs(const std::string &text, unsigned &jobs)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(text.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || v > 4096)
        return false;
    jobs = unsigned(v);
    return true;
}

unsigned
SweepRunner::envJobs()
{
    const char *env = std::getenv("KMU_JOBS");
    unsigned jobs = 1;
    if (env)
        parseJobs(env, jobs);
    return jobs;
}

unsigned
SweepRunner::argvJobs(int argc, char **argv)
{
    unsigned jobs = envJobs();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("jobs=", 0) == 0)
            parseJobs(arg.substr(5), jobs);
    }
    return jobs;
}

std::vector<RunResult>
SweepRunner::run(std::size_t count, const PointFn &fn, unsigned jobs,
                 Stats *stats)
{
    Stats st;
    const std::vector<Payload> wire = runPool(
        count,
        [&fn](std::size_t i, double &kernelSeconds) {
            const RunResult res = fn(i);
            kernelSeconds = res.kernelWallSeconds;
            return serializeRunResult(res);
        },
        jobs, st);

    std::vector<RunResult> results(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (!deserializeRunResult(wire[i].data(), wire[i].size(),
                                  results[i])) {
            // A well-framed payload that is no RunResult came from a
            // broken worker: recompute it here, like a lost point.
            results[i] = fn(i);
            st.pointsRecovered++;
        }
        // The deterministic event count crosses the wire inside each
        // RunResult; kernel wall time arrived with the frames.
        st.kernelEvents += results[i].kernelEvents;
    }
    if (stats)
        *stats = st;
    return results;
}

std::vector<Payload>
SweepRunner::runPayloads(std::size_t count, const PayloadFn &fn,
                         unsigned jobs, Stats *stats)
{
    Stats st;
    std::vector<Payload> out = runPool(
        count, [&fn](std::size_t i, double &) { return fn(i); }, jobs,
        st);
    if (stats)
        *stats = st;
    return out;
}

} // namespace kmu::sweep
