#include "core/sw_queue_core.hh"

#include "check/invariant.hh"
#include "common/thread_annotations.hh"

namespace kmu
{

SwQueueCore::SwQueueCore(std::string name, EventQueue &queue, CoreId id,
                         const SystemConfig &config,
                         std::vector<SwQueuePair *> queue_pairs,
                         std::vector<RingDoorbell> rings,
                         StatGroup *stat_parent)
    : CoreBase(std::move(name), queue, id, config,
               IssueLine{}, // software queues bypass the LFB path
               stat_parent),
      submits(stats(), "submits", "request descriptors enqueued"),
      doorbellsRung(stats(), "doorbells_rung",
                    "MMIO doorbells performed (flag observed set)"),
      pollPasses(stats(), "poll_passes",
                 "completion-queue poll passes"),
      completionsHandled(stats(), "completions_handled",
                         "completion records reaped"),
      idleWaits(stats(), "idle_waits",
                "times the scheduler ran out of ready threads and "
                "completions alike"),
      queues(std::move(queue_pairs)), doorbells(std::move(rings))
{
    kmuAssert(!queues.empty() && queues.size() == doorbells.size(),
              "need one queue pair and one doorbell per shard");
    kmuAssert(queues.size() <= 64, "shard count exceeds ring mask");
    threads.resize(cfg.threadsPerCore);
    submitTicks.assign(std::size_t(cfg.threadsPerCore) *
                           AccessEngine::maxBatch,
                       noSubmit);
}

void
SwQueueCore::start()
{
    for (ThreadId tid = 0; tid < threads.size(); ++tid)
        readyQueue.push_back(tid);
    coreLoop();
}

void
SwQueueCore::coreLoop()
{
    if (!readyQueue.empty()) {
        const ThreadId tid = readyQueue.front();
        readyQueue.pop_front();
        chargeAndThen(cfg.ctxSwitchCost,
                      [this, tid]() { visitThread(tid); });
        return;
    }
    pollLoop();
}

void
SwQueueCore::visitThread(ThreadId tid)
{
    UThread &t = threads[tid];
    if (!t.started) {
        t.started = true;
        submitPhase(tid);
        return;
    }
    if (t.parkedAtSubmit) {
        // Serving mode: the thread parked in submitPhase waiting for
        // an arrival and was re-queued by onRequestReady — there are
        // no responses to consume, go straight back to submission.
        t.parkedAtSubmit = false;
        submitPhase(tid);
        return;
    }

    // Consume the read responses (first touch of each DMA-written
    // buffer) and run the dependent work block; posted writes left
    // nothing to consume.
    const Tick consume = Tick(t.reads) * cfg.responseReadCost;
    const Tick work = cfg.workTicks(t.plan);
    chargeAndThen(consume + work, [this, tid]() {
        retireIteration(threads[tid].plan);
        if (cfg.onRetire)
            cfg.onRetire(id(), tid, threads[tid].iter);
        threads[tid].iter++;
        submitPhase(tid);
    });
}

void
SwQueueCore::submitPhase(ThreadId tid)
{
    UThread &t0 = threads[tid];
    // Serving mode: only submit once a request is bound to this
    // thread. On failure the thread parks off the ready queue; the
    // wake re-queues it and the scheduler keeps running the rest.
    if (cfg.admitGate &&
        !cfg.admitGate(id(), tid, t0.iter, [this, tid]() {
            onRequestReady(tid);
        })) {
        t0.parkedAtSubmit = true;
        coreLoop();
        return;
    }
    t0.plan = cfg.planFor(id(), tid, t0.iter);
    kmuAssert(t0.plan.batch >= 1 &&
              t0.plan.batch <= AccessEngine::maxBatch,
              "bad plan batch %u", t0.plan.batch);
    const Tick enqueue = Tick(t0.plan.batch) * cfg.qEnqueueCost;
    chargeAndThen(enqueue, [this, tid]() {
        UThread &t = threads[tid];
        std::uint32_t reads = 0;
        Tick staging_cost = 0;
        std::uint64_t touched = 0; //!< shards that got a descriptor
        for (std::uint32_t slot = 0; slot < t.plan.batch; ++slot) {
            const Addr line = lineAlign(addrFor(tid, t.iter, slot));
            const std::uint32_t shard = topo::shardOf(line, cfg.topo);
            RequestDescriptor desc;
            if (isWriteSlot(tid, t.iter, slot)) {
                // Posted write: stage the line, submit, don't wait.
                desc = RequestDescriptor::write(
                    line, topo::taggedShard(encodeTag(tid, slot) | 1,
                                            shard));
                staging_cost += cfg.storeLatency;
                writesPosted++;
                accessesCompleted++;
            } else {
                desc = RequestDescriptor::read(
                    line, topo::taggedShard(encodeTag(tid, slot),
                                            shard));
                submitTicks[tid * AccessEngine::maxBatch + slot] =
                    curTick();
                reads++;
            }
            SwQueuePair &qp = *queues[shard];
            RoleGuard host(qp.hostRole); // the modeled core is host
            const bool ok = qp.submit(desc);
            kmuAssert(ok, "request ring overflow: deepen queueDepth");
            ++submits;
            touched |= std::uint64_t(1) << shard;
        }
        t.reads = reads;
        t.pendingFills = reads;
        if (reads == 0) {
            // All-write iteration: nothing to wait for; the thread
            // goes straight back on the ready queue.
            readyQueue.push_back(tid);
        }
        // Staging the write payloads costs core time; doorbells add
        // the MMIO cost per shard whose flag protocol demands one.
        Tick post_cost = staging_cost;
        std::uint64_t ring = 0;
        if (!cfg.device.doorbellFlag) {
            // Ablation: no flag protocol — every submission batch
            // pays the MMIO doorbell on every shard it touched.
            ring = touched;
        } else {
            for (std::uint32_t s = 0; s < queues.size(); ++s) {
                SwQueuePair &qp = *queues[s];
                RoleGuard host(qp.hostRole);
                if (qp.consumeDoorbellRequest())
                    ring |= std::uint64_t(1) << s;
            }
        }
        const auto rings =
            std::uint32_t(__builtin_popcountll(ring));
        if (rings > 0) {
            doorbellsRung += rings;
            post_cost += Tick(rings) * cfg.doorbellCost;
        }
        if (post_cost == 0) {
            coreLoop();
            return;
        }
        chargeAndThen(post_cost, [this, ring]() {
            for (std::uint32_t s = 0; s < doorbells.size(); ++s) {
                if ((ring >> s & 1) != 0)
                    doorbells[s]();
            }
            coreLoop();
        });
    });
}

void
SwQueueCore::pollLoop()
{
    ++pollPasses;
    chargeAndThen(Tick(queues.size()) * cfg.pollCost, [this]() {
        std::uint32_t reaped = 0;
        CompletionDescriptor comp;
        for (std::uint32_t s = 0; s < queues.size(); ++s) {
            SwQueuePair &qp = *queues[s];
            RoleGuard host(qp.hostRole);
            while (qp.reapCompletion(comp)) {
                KMU_INVARIANT(topo::shardTag(comp.hostAddr) == s,
                              "%s reaped a shard-%u completion from "
                              "shard %u's queue", name().c_str(),
                              topo::shardTag(comp.hostAddr), s);
                ++completionsHandled;
                reaped++;
                if (isWriteTag(comp.hostAddr)) {
                    // Posted-write completion: bookkeeping only.
                    continue;
                }
                const ThreadId tid = decodeThread(comp.hostAddr);
                kmuAssert(tid < threads.size(),
                          "completion for unknown thread %u", tid);
                UThread &t = threads[tid];
                kmuAssert(t.pendingFills > 0, "unexpected completion");
                Tick &submitted =
                    submitTicks[tid * AccessEngine::maxBatch +
                                decodeSlot(comp.hostAddr)];
                KMU_INVARIANT(submitted != noSubmit,
                              "%s reaped read %#llx it never submitted",
                              name().c_str(),
                              (unsigned long long)comp.hostAddr);
                if (sampleLatency)
                    sampleLatency(ticksToNs(curTick() - submitted));
                submitted = noSubmit;
                t.pendingFills--;
                accessesCompleted++;
                if (t.pendingFills == 0)
                    readyQueue.push_back(tid);
            }
        }

        if (reaped > 0) {
            chargeAndThen(Tick(reaped) * cfg.completionHandleCost,
                          [this]() { coreLoop(); });
            return;
        }

        // A request may have arrived for a parked thread during the
        // poll charge (serving mode only — closed-loop threads can't
        // become ready without a reaped completion): run it rather
        // than sleeping with work queued.
        if (!readyQueue.empty()) {
            coreLoop();
            return;
        }

        // Nothing arrived: sleep until the device posts a completion.
        ++idleWaits;
        idleWaiting = true;
    });
}

void
SwQueueCore::onRequestReady(ThreadId tid)
{
    readyQueue.push_back(tid);
    if (!idleWaiting)
        return; // the running scheduler will reach it
    idleWaiting = false;
    eventQueue().scheduleLambda(curTick(), [this]() { coreLoop(); },
                                EventPriority::CpuTick,
                                serveWakeName);
}

void
SwQueueCore::onCompletionPosted()
{
    if (!idleWaiting)
        return;
    idleWaiting = false;
    // Wake the scheduler; the next poll pass reaps the record.
    eventQueue().scheduleLambda(curTick(), [this]() { pollLoop(); },
                                EventPriority::CpuTick,
                                wakeName);
}

} // namespace kmu
