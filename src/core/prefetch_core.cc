#include "core/prefetch_core.hh"

namespace kmu
{

PrefetchCore::PrefetchCore(std::string name, EventQueue &queue, CoreId id,
                           const SystemConfig &config, IssueLine issue,
                           StatGroup *stat_parent)
    : CoreBase(std::move(name), queue, id, config, std::move(issue),
               stat_parent),
      prefetchesIssued(stats(), "prefetches_issued",
                       "software prefetches that allocated an LFB "
                       "entry immediately"),
      prefetchesQueued(stats(), "prefetches_queued",
                       "software prefetches that waited in the load "
                       "buffers for a free LFB entry"),
      prefetchesMerged(stats(), "prefetches_merged",
                       "prefetches coalesced into an in-flight miss"),
      loadStalls(stats(), "load_stalls",
                 "demand loads that waited on an in-flight prefetch")
{
    kmuAssert(cfg.threadsPerCore >= 1, "prefetch core needs threads");
    threads.resize(cfg.threadsPerCore);
}

void
PrefetchCore::start()
{
    runCurrent();
}

void
PrefetchCore::runCurrent()
{
    // Serving mode: skip parked threads without charge; with every
    // thread parked the core goes idle until an arrival unparks one.
    // parkedCount is 0 whenever serving is off, so the closed-loop
    // path never takes this branch.
    if (parkedCount > 0) {
        std::uint32_t scanned = 0;
        while (threads[current].parked &&
               scanned < threads.size()) {
            current = (current + 1) % std::uint32_t(threads.size());
            scanned++;
        }
        if (threads[current].parked) {
            coreIdle = true;
            return;
        }
    }
    UThread &t = threads[current];
    if (t.firstVisit) {
        if (!admitCurrent())
            return;
        t.firstVisit = false;
        issuePrefetches();
        switchAway(t.plan.batch);
        return;
    }
    consumeLoads(0);
}

bool
PrefetchCore::admitCurrent()
{
    if (!cfg.admitGate)
        return true;
    UThread &t = threads[current];
    const std::uint32_t tid = current;
    if (cfg.admitGate(id(), tid, t.iter,
                      [this, tid]() { unpark(tid); })) {
        return true;
    }
    // No request yet: park with firstVisit set so the next visit
    // re-enters the prefetch-issue path, and let the scheduler find
    // a runnable thread (or idle the core).
    t.parked = true;
    t.firstVisit = true;
    parkedCount++;
    runCurrent();
    return false;
}

void
PrefetchCore::unpark(std::uint32_t thread_id)
{
    UThread &t = threads[thread_id];
    kmuAssert(t.parked, "unpark of a running thread");
    t.parked = false;
    kmuAssert(parkedCount > 0, "unpark without parked threads");
    parkedCount--;
    if (coreIdle) {
        // The woken thread restarts the otherwise-quiet core.
        coreIdle = false;
        current = thread_id;
        eventQueue().scheduleLambda(
            curTick(), [this]() { runCurrent(); },
            EventPriority::CpuTick, serveWakeName);
    }
}

void
PrefetchCore::consumeLoads(std::uint32_t slot)
{
    UThread &t = threads[current];
    // Walk slots, accumulating L1-hit (or posted-store) time, until
    // one is not ready.
    Tick charge = 0;
    while (slot < t.plan.batch &&
           t.slots[slot] == SlotState::Filled) {
        if (t.writeSlots[slot]) {
            // Posted store: the line write leaves via the store
            // buffer without stalling the thread.
            charge += cfg.storeLatency;
            emitWrite(current, t.iter, slot);
        } else {
            charge += cfg.loadHitLatency;
            accessesCompleted++;
        }
        slot++;
    }

    if (slot == t.plan.batch) {
        chargeAndThen(charge, [this]() { finishVisit(); });
        return;
    }

    // The load finds its line still in flight (in the MSHR or queued
    // for it) and blocks the core until the fill; the fill callback
    // registered at prefetch time resumes us.
    const std::uint32_t stuck = slot;
    ++loadStalls;
    chargeAndThen(charge, [this, stuck]() {
        UThread &tt = threads[current];
        if (tt.slots[stuck] == SlotState::Filled) {
            consumeLoads(stuck);
        } else {
            tt.waitingSlot = stuck;
        }
    });
}

void
PrefetchCore::finishVisit()
{
    const IterationPlan done = threads[current].plan;
    chargeAndThen(cfg.workTicks(done), [this, done]() {
        retireIteration(done);
        if (cfg.onRetire)
            cfg.onRetire(id(), current, threads[current].iter);
        threads[current].iter++;
        if (!admitCurrent())
            return;
        issuePrefetches();

        // Count the prefetches actually issued (write slots issue
        // none). A write-only iteration has no latency to hide, so
        // the scheduler is not invoked at all — the thread keeps
        // running, exactly the paper's "hidden by later instructions
        // of the same thread" argument for writes.
        const UThread &t = threads[current];
        std::uint32_t reads = 0;
        for (std::uint32_t slot = 0; slot < t.plan.batch; ++slot)
            reads += t.writeSlots[slot] ? 0 : 1;
        if (reads == 0) {
            consumeLoads(0);
            return;
        }
        switchAway(reads);
    });
}

void
PrefetchCore::issuePrefetches()
{
    UThread &t = threads[current];
    const std::uint32_t thread_id = current;

    t.plan = cfg.planFor(id(), thread_id, t.iter);
    kmuAssert(t.plan.batch >= 1 &&
              t.plan.batch <= AccessEngine::maxBatch,
              "bad plan batch %u", t.plan.batch);
    t.slots.assign(t.plan.batch, SlotState::Pending);
    t.writeSlots.assign(t.plan.batch, false);

    for (std::uint32_t slot = 0; slot < t.plan.batch; ++slot) {
        if (isWriteSlot(thread_id, t.iter, slot)) {
            // Writes need no prefetch and nothing to wait for; the
            // store itself happens at consume time.
            t.writeSlots[slot] = true;
            t.slots[slot] = SlotState::Filled;
            continue;
        }
        const Addr line = lineAlign(addrFor(thread_id, t.iter, slot));
        if (l1Hit(line)) {
            // Already cached: the prefetch is a no-op and the load
            // will hit without touching the LFBs or the device.
            t.slots[slot] = SlotState::Filled;
            continue;
        }
        allocatePrefetch(thread_id, slot);
    }
}

void
PrefetchCore::allocatePrefetch(std::uint32_t thread_id,
                               std::uint32_t slot)
{
    UThread &t = threads[thread_id];
    const Addr line = lineAlign(addrFor(thread_id, t.iter, slot));
    const auto result = lineFillBuffers.request(
        line, [this, thread_id, slot]() {
            UThread &tt = threads[thread_id];
            tt.slots[slot] = SlotState::Filled;
            if (thread_id == current && tt.waitingSlot == slot) {
                tt.waitingSlot = noWait;
                consumeLoads(slot);
            }
        });

    switch (result) {
      case Lfb::AllocResult::NewEntry:
        ++prefetchesIssued;
        issueLine(line);
        break;
      case Lfb::AllocResult::Merged:
        // Another thread already has this line in flight (possible
        // only with locality-bearing address plans): our callback is
        // attached to the existing entry.
        ++prefetchesMerged;
        break;
      case Lfb::AllocResult::NoEntry:
        // The prefetch waits in the load buffers; it allocates an
        // entry (FIFO) once one frees up. The thread's eventual
        // demand load simply finds the line still Pending.
        ++prefetchesQueued;
        lineFillBuffers.waitForFree([this, thread_id, slot]() {
            allocatePrefetch(thread_id, slot);
        });
        break;
    }
}

void
PrefetchCore::switchAway(std::uint32_t issued)
{
    chargeAndThen(Tick(issued) * cfg.prefetchIssueLatency +
                      cfg.ctxSwitchCost,
                  [this]() {
                      current = (current + 1) %
                                std::uint32_t(threads.size());
                      runCurrent();
                  });
}

} // namespace kmu
