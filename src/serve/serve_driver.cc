#include "serve/serve_driver.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace kmu
{
namespace serve
{

ServeDriver::ServeDriver(const ServeConfig &config, EventQueue &queue,
                         StatGroup *parent, std::uint32_t num_lanes)
    : SimObject("serve", queue, parent), cfg(config), gen(config),
      zipf(config.numKeys, config.zipfTheta),
      keyRng(mix64(config.seed ^ 0x5e27e0ull)),
      lanes(num_lanes),
      sloTicks(Tick(config.sloUs * 1e6)),
      arrived(stats(), "requests_arrived",
              "requests emitted by the arrival process"),
      retired(stats(), "requests_completed",
              "requests retired by the cores"),
      underSlo(stats(), "requests_under_slo",
               "completed requests within the latency SLO"),
      latencyNs(stats(), "request_latency_log_ns",
                "arrival-to-retirement latency incl. queueing (ns)",
                1.0, latencyBuckets)
{
    kmuAssert(cfg.enabled(), "serve driver needs arrivals enabled");
    kmuAssert(num_lanes > 0, "serve driver needs at least one lane");
    kmuAssert(cfg.valueLines > 0, "requests must read >= 1 line");
    kmuAssert(cfg.keyspaceFits(),
              "keyspace times value size overflows the address tags");
}

void
ServeDriver::start()
{
    scheduleNext();
}

void
ServeDriver::scheduleNext()
{
    const Tick at = gen.next();
    if (cfg.clients != 0 && inFlight >= cfg.clients) {
        // Partly-open loop: every emulated client is waiting on a
        // response, so the arrival clock pauses. retire() resumes
        // it from the withheld tick.
        paused = true;
        pausedAt = at;
        return;
    }
    const Tick when = std::max(at, curTick());
    eventQueue().scheduleLambda(when, [this] { onArrival(); });
}

void
ServeDriver::bindTo(Lane &lane, const Request &req)
{
    lane.bound.push_back(req);
    lane.boundCount++;
}

void
ServeDriver::onArrival()
{
    Request req{curTick(), zipf.draw(keyRng), nextSeq++};
    if (curTick() >= measureStart)
        ++arrived;
    inFlight++;
    peakInFlight = std::max(peakInFlight, inFlight);
    trace::begin(trace::Kind::Request, req.seq, traceLane);
    if (!waiters.empty()) {
        // Hand the request straight to the longest-parked lane; its
        // re-entered gate call finds the iteration already bound.
        const std::uint32_t id = waiters.front();
        waiters.pop_front();
        Lane &lane = lanes[id];
        lane.waiting = false;
        bindTo(lane, req);
        auto wake = std::move(lane.wake);
        lane.wake = nullptr;
        kmuAssert(wake != nullptr, "parked lane lost its wake hook");
        wake();
    } else {
        pendingRequests.push_back(req);
    }
    scheduleNext();
}

bool
ServeDriver::admit(std::uint32_t lane_id, std::uint64_t iter,
                   std::function<void()> wake)
{
    kmuAssert(lane_id < lanes.size(), "admit: lane out of range");
    Lane &lane = lanes[lane_id];
    if (iter < lane.boundCount)
        return true; // already bound (re-entry after a wake)
    kmuAssert(iter == lane.boundCount,
              "lanes must bind iterations in order");
    if (!pendingRequests.empty()) {
        bindTo(lane, pendingRequests.front());
        pendingRequests.pop_front();
        return true;
    }
    // Park. Refresh the wake hook even when already queued so the
    // newest continuation is the one that runs.
    lane.wake = std::move(wake);
    if (!lane.waiting) {
        lane.waiting = true;
        waiters.push_back(lane_id);
    }
    return false;
}

Addr
ServeDriver::addressFor(std::uint32_t lane_id, std::uint64_t iter,
                        std::uint32_t slot) const
{
    kmuAssert(lane_id < lanes.size(), "address: lane out of range");
    const Lane &lane = lanes[lane_id];
    kmuAssert(iter >= lane.retiredCount && iter < lane.boundCount,
              "address query for an unbound iteration");
    const std::size_t idx = std::size_t(iter - lane.retiredCount);
    const Request &req = lane.bound[idx];
    return (Addr(req.key) * cfg.valueLines + slot) * cacheLineSize;
}

void
ServeDriver::retire(std::uint32_t lane_id, std::uint64_t iter)
{
    kmuAssert(lane_id < lanes.size(), "retire: lane out of range");
    Lane &lane = lanes[lane_id];
    kmuAssert(!lane.bound.empty() && iter == lane.retiredCount,
              "lanes must retire iterations in order");
    const Request req = lane.bound.front();
    lane.bound.pop_front();
    lane.retiredCount++;
    kmuAssert(inFlight > 0, "retire without an in-flight request");
    inFlight--;

    const Tick latency = curTick() - req.arrivalTick;
    const double latencyNsValue = double(latency) / 1000.0;
    if (curTick() >= measureStart) {
        ++retired;
        latencyNs.sample(latencyNsValue);
        if (latency <= sloTicks)
            ++underSlo;
    }
    const auto arg = std::uint32_t(std::min<double>(
        latencyNsValue, std::numeric_limits<std::uint32_t>::max()));
    trace::end(trace::Kind::Request, req.seq, traceLane, arg);

    if (paused && (cfg.clients == 0 || inFlight < cfg.clients)) {
        paused = false;
        const Tick when = std::max(pausedAt, curTick());
        eventQueue().scheduleLambda(when, [this] { onArrival(); });
    }
}

} // namespace serve
} // namespace kmu
