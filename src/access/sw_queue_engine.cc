#include "access/sw_queue_engine.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "access/access_trace.hh"
#include "common/crc.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"

namespace kmu
{

SwQueueEngine::SwQueueEngine(Scheduler &scheduler, EmulatedDevice &device,
                             std::vector<std::size_t> pair_list,
                             topo::Interleave interleave,
                             fault::DegradationGovernor *gov,
                             fault::RetryPolicy policy,
                             health::RecoveryController *ctrl)
    : sched(scheduler), dev(device), pairIndices(std::move(pair_list)),
      governor(gov), backoff(policy), controller(ctrl)
{
    kmuAssert(!pairIndices.empty() &&
                  pairIndices.size() <= topo::maxShards,
              "need 1..%u queue pairs", topo::maxShards);
    topoCfg.shards = std::uint32_t(pairIndices.size());
    topoCfg.interleave = interleave;
    pairs.reserve(pairIndices.size());
    for (std::size_t idx : pairIndices)
        pairs.push_back(&device.queuePair(idx));
    if (controller != nullptr) {
        kmuAssert(controller->shards() == topoCfg.shards,
                  "controller built for %u shards, engine has %u",
                  controller->shards(), topoCfg.shards);
        shardSignals.resize(topoCfg.shards);
        epochBase.resize(topoCfg.shards);
        shardLive.assign(topoCfg.shards, 0);
        oldestScratch.assign(topoCfg.shards, 0);
        nextEpochAt = controller->config().epochPolls;
    }

    sched.setIdleHandler([this]() { return pollCompletions(); });
    staging.reserve(stagingSlots);
    for (std::size_t i = 0; i < stagingSlots; ++i) {
        staging.push_back(std::make_unique<StagingBuffer>());
        const Addr key = reinterpret_cast<std::uintptr_t>(
            &staging.back()->line[0]);
        stagingIndex.emplace(key, i);
        freeStaging.push_back(i);
    }
}

SwQueueEngine::FiberIo &
SwQueueEngine::ioState()
{
    Fiber *self = sched.current();
    kmuAssert(self != nullptr, "SwQueueEngine used outside a fiber");

    auto it = ioStates.find(self);
    if (it == ioStates.end()) {
        auto io = std::make_unique<FiberIo>();
        io->fiber = self;
        for (std::size_t i = 0; i < maxBatch; ++i)
            io->buffers[i] = leaseBuffer(*io, i);
        ioList.push_back(io.get());
        it = ioStates.emplace(self, std::move(io)).first;
    }
    return *it->second;
}

std::uint8_t *
SwQueueEngine::leaseBuffer(FiberIo &io, std::size_t slot)
{
    std::uint8_t *buf;
    if (!freeBuffers.empty()) {
        buf = freeBuffers.back();
        freeBuffers.pop_back();
    } else {
        bufferPool.push_back(std::make_unique<LineBuffer>());
        buf = &bufferPool.back()->line[0];
        const Addr key = reinterpret_cast<std::uintptr_t>(buf);
        // The generation tag lives in hostAddr bits 48..55, so
        // buffer addresses must leave them clear.
        kmuAssert(RequestDescriptor::hostPtr(key) == key,
                  "response buffer address uses tag bits: %#llx",
                  (unsigned long long)key);
    }
    bufStates[reinterpret_cast<Addr>(buf)] = BufState{&io, slot, 0};
    return buf;
}

void
SwQueueEngine::quarantineBufferIfLive(FiberIo &io, std::size_t slot)
{
    const Addr key = reinterpret_cast<Addr>(io.buffers[slot]);
    auto it = bufStates.find(key);
    kmuAssert(it != bufStates.end(), "slot buffer not leased");
    if (it->second.outstanding == 0)
        return; // every attempt answered: the buffer is idle
    // A twin naming this buffer is still queued somewhere; its DMA
    // will land whenever that ring drains. Park the buffer until
    // then and move the slot to a fresh lease.
    it->second.io = nullptr;
    io.buffers[slot] = leaseBuffer(io, slot);
}

void
SwQueueEngine::deviceBackoff()
{
    if (dev.manualMode())
        dev.pump();
    else
        std::this_thread::yield(); // let the device thread run
}

void
SwQueueEngine::stalledWait()
{
    if (drainCompletions() == 0)
        deviceBackoff();
    tickWatchdog();
    watchdogScan();
    healthEpochMaybe();
}

void
SwQueueEngine::tickWatchdog()
{
    if (!dev.manualMode()) {
        const std::uint64_t passes = dev.servicePasses();
        if (passes == devicePassesSeen)
            return;
        devicePassesSeen = passes;
    }
    pollTick++;
}

std::uint32_t
SwQueueEngine::routeFor(Addr line)
{
    const std::uint32_t natural = shardFor(line);
    if (controller == nullptr)
        return natural;
    const std::uint32_t routed =
        controller->route(natural, line / cacheLineSize);
    if (routed != natural)
        recoveryStats.failovers++;
    return routed;
}

std::uint32_t
SwQueueEngine::routeForOrdered(Addr line, std::size_t excludeSlot)
{
    if (controller != nullptr) {
        std::size_t best = stagingSlots;
        for (std::size_t s = 0; s < stagingSlots; ++s) {
            if (s == excludeSlot || !writeState[s].pending ||
                writeState[s].line != line)
                continue;
            if (best == stagingSlots ||
                writeState[s].seq > writeState[best].seq)
                best = s;
        }
        if (best != stagingSlots)
            return writeState[best].shard;
    }
    return routeFor(line);
}

void
SwQueueEngine::failRead(FiberIo &io, std::size_t slot, AccessStatus status)
{
    kmuAssert(io.pending[slot], "failing an idle slot");
    io.pending[slot] = false;
    io.status[slot] = status;
    // The failed attempt (and any twins) may still be queued on a
    // hung ring; the slot must not reuse their response buffer.
    quarantineBufferIfLive(io, slot);
    if (status == AccessStatus::DeadlineExceeded)
        recoveryStats.deadlineErrors++;
    if (controller != nullptr && shardLive[io.shard[slot]] > 0)
        shardLive[io.shard[slot]]--;
    slotDone(io);
}

void
SwQueueEngine::slotDone(FiberIo &io)
{
    kmuAssert(io.outstanding > 0, "completion overflow for fiber");
    io.outstanding--;
    inFlight--;
    if (io.outstanding == 0 && io.fiber->state() == FiberState::Blocked)
        sched.unblock(*io.fiber);
}

void
SwQueueEngine::healthEpochMaybe()
{
    if (controller == nullptr || pollTick < nextEpochAt)
        return;

    // Completion-age watermark per routed shard. Scan order is
    // deterministic (fibers in first-use order, then staging slots
    // by index), so health decisions replay bit-identically.
    std::fill(oldestScratch.begin(), oldestScratch.end(), 0);
    for (FiberIo *iop : ioList) {
        FiberIo &io = *iop;
        if (io.outstanding == 0)
            continue;
        for (std::size_t slot = 0; slot < maxBatch; ++slot) {
            if (!io.pending[slot])
                continue;
            const std::uint64_t age = pollTick - io.issuedAt[slot];
            oldestScratch[io.shard[slot]] =
                std::max(oldestScratch[io.shard[slot]], age);
        }
    }
    for (std::size_t slot = 0; slot < stagingSlots; ++slot) {
        const WriteState &ws = writeState[slot];
        if (!ws.pending)
            continue;
        const std::uint64_t age = pollTick - ws.issuedAt;
        oldestScratch[ws.shard] =
            std::max(oldestScratch[ws.shard], age);
    }

    for (std::uint32_t s = 0; s < topoCfg.shards; ++s) {
        health::ShardSignals sig;
        sig.completions =
            shardSignals[s].completions - epochBase[s].completions;
        sig.retries = shardSignals[s].retries - epochBase[s].retries;
        sig.rejects = shardSignals[s].rejects - epochBase[s].rejects;
        sig.queueDepth = shardLive[s];
        sig.oldestAge = oldestScratch[s];
        controller->sampleEpoch(s, sig);
        epochBase[s] = shardSignals[s];
    }
    controller->endEpoch();
    nextEpochAt = pollTick + controller->config().epochPolls;
}

SwQueueEngine::FiberIo &
SwQueueEngine::submitAndWait(const Addr *addrs, std::size_t n)
{
    kmuAssert(n >= 1 && n <= maxBatch, "bad batch size %zu", n);
    FiberIo &io = ioState();
    kmuAssert(io.outstanding == 0, "fiber re-entered submitAndWait");

    access_trace::readBegin(std::uint32_t(n));
    io.outstanding = std::uint32_t(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Fresh generation per logical read: a stale completion for
        // this buffer — from a lost-then-recovered earlier op or a
        // timed-out twin — no longer matches and gets filtered.
        io.pending[i] = true;
        io.gen[i] = std::uint8_t(io.gen[i] + 1u);
        io.line[i] = lineAlign(addrs[i]);
        io.attempts[i] = 0;
        io.status[i] = AccessStatus::Ok;
        io.issuedAt[i] = pollTick;
        io.deadlineAt[i] = pollTick + backoff.deadlinePolls(1);
        const std::uint32_t shard = routeForOrdered(io.line[i]);
        io.shard[i] = shard;
        RequestDescriptor desc = RequestDescriptor::read(
            io.line[i],
            topo::taggedShard(
                RequestDescriptor::taggedHost(
                    reinterpret_cast<std::uintptr_t>(
                        &io.buffers[i][0]),
                    io.gen[i]),
                shard));
        inFlight++;
        accessCount++;
        SwQueuePair &qp = *pairs[shard];
        RoleGuard host(qp.hostRole); // engine fibers are the host side
        bool submitted = false;
        while (io.pending[i] && !(submitted = qp.submit(desc))) {
            // Request ring full: let other fibers and the device
            // make progress, then retry. The watchdog may fail the
            // slot back (or a re-issue answer it) meanwhile; its
            // descriptor is then no longer needed.
            if (controller != nullptr)
                shardSignals[shard].rejects++;
            stalledWait();
            sched.yield();
        }
        if (!submitted)
            continue;
        bufStates.at(reinterpret_cast<Addr>(io.buffers[i]))
            .outstanding++;
        if (controller != nullptr)
            shardLive[shard]++;
    }
    doorbellIfRequested();
    if (io.outstanding > 0)
        sched.block();
    kmuAssert(io.outstanding == 0, "fiber woken with requests pending");
    access_trace::readEnd();
    return io;
}

std::uint64_t
SwQueueEngine::read64(Addr addr)
{
    std::uint64_t value;
    const AccessStatus status = SwQueueEngine::tryRead64(addr, value);
    kmuAssert(status == AccessStatus::Ok,
              "read64 of %#llx failed back; use tryRead64 where an "
              "access may fail", (unsigned long long)addr);
    return value;
}

AccessStatus
SwQueueEngine::tryRead64(Addr addr, std::uint64_t &out)
{
    FiberIo &io = submitAndWait(&addr, 1);
    if (io.status[0] != AccessStatus::Ok)
        return io.status[0];
    const std::size_t offset = addr - lineAlign(addr);
    kmuAssert(offset + 8 <= cacheLineSize, "read64 straddles lines");
    std::memcpy(&out, &io.buffers[0][offset], sizeof(out));
    return AccessStatus::Ok;
}

void
SwQueueEngine::readBatch(const Addr *addrs, std::size_t n,
                         std::uint64_t *out)
{
    FiberIo &io = submitAndWait(addrs, n);
    for (std::size_t i = 0; i < n; ++i) {
        kmuAssert(io.status[i] == AccessStatus::Ok,
                  "batch read %zu failed back", i);
        const std::size_t offset = addrs[i] - lineAlign(addrs[i]);
        kmuAssert(offset + 8 <= cacheLineSize, "read straddles lines");
        std::memcpy(&out[i], &io.buffers[i][offset], sizeof(out[0]));
    }
}

void
SwQueueEngine::readLines(const Addr *addrs, std::size_t n, void *out)
{
    const AccessStatus status = SwQueueEngine::tryReadLines(addrs, n, out);
    kmuAssert(status == AccessStatus::Ok,
              "line read failed back; use tryReadLines where an "
              "access may fail");
}

AccessStatus
SwQueueEngine::tryReadLines(const Addr *addrs, std::size_t n, void *out)
{
    for (std::size_t i = 0; i < n; ++i)
        kmuAssert(isLineAligned(addrs[i]), "readLines needs alignment");
    FiberIo &io = submitAndWait(addrs, n);
    auto *dst = static_cast<std::uint8_t *>(out);
    AccessStatus status = AccessStatus::Ok;
    for (std::size_t i = 0; i < n; ++i) {
        if (io.status[i] != AccessStatus::Ok)
            status = io.status[i];
        else
            std::memcpy(dst + i * cacheLineSize, &io.buffers[i][0],
                        cacheLineSize);
    }
    return status;
}

void
SwQueueEngine::doorbellIfRequested()
{
    // Doorbell-request protocol: only ring the shards whose device
    // side asked for one.
    for (std::uint32_t s = 0; s < pairs.size(); ++s) {
        SwQueuePair &qp = *pairs[s];
        RoleGuard host(qp.hostRole);
        if (qp.consumeDoorbellRequest()) {
            doorbells++;
            trace::instant(trace::Kind::Doorbell, doorbells,
                           std::uint16_t(pairIndices[s]));
            dev.doorbell(pairIndices[s]);
        }
    }
}

void
SwQueueEngine::forceDoorbell(std::uint32_t shard)
{
    // Recovery path: the doorbell (or the completion that would have
    // made one unnecessary) may have been lost, so ring regardless
    // of the request flag. Consume the flag first so the protocol
    // state stays consistent with a rung doorbell.
    SwQueuePair &qp = *pairs[shard];
    RoleGuard host(qp.hostRole);
    qp.consumeDoorbellRequest();
    recoveryStats.recoveryDoorbells++;
    doorbells++;
    trace::instant(trace::Kind::Doorbell, doorbells,
                   std::uint16_t(pairIndices[shard]), 1 /* recovery */);
    dev.doorbell(pairIndices[shard]);
}

void
SwQueueEngine::reissueRead(FiberIo &io, std::size_t slot)
{
    // Retry pressure is evidence about the shard the failed attempt
    // was routed to, not the interleave-natural owner.
    if (controller != nullptr)
        shardSignals[io.shard[slot]].retries++;
    // Bounded-latency contract: under a Full controller a request
    // that outlived its deadline (or its retry budget) fails back to
    // the workload instead of retrying forever against a shard that
    // may never answer. Without one, a read out of retries fails
    // back as the mapped engine's does.
    if (deadlineMode() &&
        (pollTick - io.issuedAt[slot] >=
             controller->config().requestDeadlinePolls ||
         io.attempts[slot] >= backoff.policy().maxRetries)) {
        failRead(io, slot, AccessStatus::DeadlineExceeded);
        return;
    }
    if (io.attempts[slot] >= backoff.policy().maxRetries) {
        failRead(io, slot, AccessStatus::RetriesExhausted);
        return;
    }
    recoveryStats.retries++;
    io.attempts[slot]++;
    io.gen[slot] = std::uint8_t(io.gen[slot] + 1u);
    // Hedged re-issue: a quarantined natural owner re-routes to a
    // sibling shard (the backing store is shared, so any pair can
    // serve the line).
    const std::uint32_t shard = routeForOrdered(io.line[slot]);
    if (controller != nullptr && shard != io.shard[slot]) {
        if (shardLive[io.shard[slot]] > 0)
            shardLive[io.shard[slot]]--;
        shardLive[shard]++;
        // Leaving the old ring's FIFO order: twins still queued
        // there must not share a response buffer with this attempt.
        quarantineBufferIfLive(io, slot);
    }
    io.shard[slot] = shard;
    const RequestDescriptor desc =
        RequestDescriptor::read(
            io.line[slot],
            topo::taggedShard(
                RequestDescriptor::taggedHost(
                    reinterpret_cast<std::uintptr_t>(
                        &io.buffers[slot][0]),
                    io.gen[slot]),
                shard))
            .asReissue();
    // Push the deadline whether or not the submit lands: a full ring
    // resolves by draining, and the watchdog will come back.
    io.deadlineAt[slot] =
        pollTick + backoff.deadlinePolls(io.attempts[slot] + 1);
    SwQueuePair &qp = *pairs[shard];
    RoleGuard host(qp.hostRole);
    if (qp.submit(desc)) {
        bufStates.at(reinterpret_cast<Addr>(io.buffers[slot]))
            .outstanding++;
        forceDoorbell(shard);
    }
}

void
SwQueueEngine::reissueWrite(std::size_t slot)
{
    WriteState &ws = writeState[slot];
    if (controller != nullptr)
        shardSignals[ws.shard].retries++;
    recoveryStats.retries++;
    ws.attempts++;
    kmuAssert(ws.attempts <= backoff.policy().maxRetries,
              "write of line %#llx exhausted its %u retries",
              (unsigned long long)ws.line,
              backoff.policy().maxRetries);
    ws.gen = std::uint8_t(ws.gen + 1u);
    // Writes never deadline-fail: the first retry after a quarantine
    // re-routes to a healthy sibling, and the shared backing image
    // keeps cross-shard writes data-safe.
    const std::uint32_t shard = routeForOrdered(ws.line, slot);
    if (controller != nullptr && shard != ws.shard) {
        if (shardLive[ws.shard] > 0)
            shardLive[ws.shard]--;
        shardLive[shard]++;
        ws.leftRing = ws.leftRing || ws.outstanding > 0;
    }
    ws.shard = shard;
    const RequestDescriptor desc =
        RequestDescriptor::write(
            ws.line,
            topo::taggedShard(
                RequestDescriptor::taggedHost(
                    reinterpret_cast<std::uintptr_t>(
                        &staging[slot]->line[0]),
                    ws.gen),
                shard))
            .asReissue();
    ws.deadlineAt = pollTick + backoff.deadlinePolls(ws.attempts + 1);
    SwQueuePair &qp = *pairs[shard];
    RoleGuard host(qp.hostRole);
    if (qp.submit(desc)) {
        ws.outstanding++;
        forceDoorbell(shard);
    }
}

void
SwQueueEngine::watchdogScan()
{
    // Deterministic order: fibers in first-use order, then staging
    // slots by index. Device writes are idempotent and reads are
    // generation-tagged, so re-issuing is always safe — the cost of
    // a spurious re-issue is one stale completion.
    for (FiberIo *iop : ioList) {
        FiberIo &io = *iop;
        if (io.outstanding == 0)
            continue;
        for (std::size_t slot = 0; slot < maxBatch; ++slot) {
            if (io.pending[slot] && pollTick >= io.deadlineAt[slot]) {
                // Per-request deadline (Full health mode): convert a
                // stuck request into a bounded-latency error instead
                // of another retry. timeouts counts only actual
                // watchdog re-issues.
                if (deadlineMode() &&
                    pollTick - io.issuedAt[slot] >=
                        controller->config().requestDeadlinePolls) {
                    if (controller != nullptr)
                        shardSignals[io.shard[slot]].retries++;
                    failRead(io, slot, AccessStatus::DeadlineExceeded);
                    continue;
                }
                recoveryStats.timeouts++;
                reissueRead(io, slot);
            }
        }
    }
    for (std::size_t slot = 0; slot < stagingSlots; ++slot) {
        if (writeState[slot].pending &&
            pollTick >= writeState[slot].deadlineAt) {
            recoveryStats.timeouts++;
            reissueWrite(slot);
        }
    }
}

std::size_t
SwQueueEngine::drainCompletions()
{
    std::size_t count = 0;
    for (std::uint32_t s = 0; s < pairs.size(); ++s)
        count += drainPair(s);
    return count;
}

std::size_t
SwQueueEngine::drainPair(std::uint32_t s)
{
    CompletionDescriptor comp;
    std::size_t count = 0;
    SwQueuePair &qp = *pairs[s];
    RoleGuard host(qp.hostRole);
    while (qp.reapCompletion(comp)) {
        count++;
        reaped++;
        kmuAssert(topo::shardTag(comp.hostAddr) == s,
                  "shard-%u completion reaped from shard %u's queue",
                  topo::shardTag(comp.hostAddr), s);
        const Addr buf = RequestDescriptor::hostPtr(
            topo::stripShard(comp.hostAddr));
        const std::uint8_t tag = RequestDescriptor::hostTag(comp.hostAddr);

        // Posted-write completion: recycle the staging buffer once
        // no attempt can still DMA-read it (WriteState::leftRing).
        auto write_it = stagingIndex.find(buf);
        if (write_it != stagingIndex.end()) {
            const std::size_t slot = write_it->second;
            WriteState &ws = writeState[slot];
            if ((!ws.pending && !ws.held) ||
                std::uint8_t(tag - ws.firstGen) >
                    std::uint8_t(ws.gen - ws.firstGen)) {
                // Late twin of the slot's previous write, which read
                // the buffer before that write's live attempt
                // completed on the same ring.
                recoveryStats.staleCompletions++;
                continue;
            }
            if (ws.outstanding > 0)
                ws.outstanding--;
            if (!ws.pending || ws.gen != tag) {
                // Twin of a write the watchdog already re-issued (or
                // whose retry already completed). If it was the last
                // attempt holding an acknowledged slot, the staging
                // buffer is finally safe to hand out again.
                recoveryStats.staleCompletions++;
                if (ws.held && ws.outstanding == 0) {
                    ws.held = false;
                    freeStaging.push_back(slot);
                }
                continue;
            }
            ws.pending = false;
            if (!ws.leftRing || ws.outstanding == 0)
                freeStaging.push_back(slot);
            else
                ws.held = true;
            inFlight--;
            if (controller != nullptr) {
                shardSignals[ws.shard].completions++;
                if (shardLive[ws.shard] > 0)
                    shardLive[ws.shard]--;
            }
            if (governor)
                governor->sample(ws.attempts > 0);
            continue;
        }

        auto it = bufStates.find(buf);
        kmuAssert(it != bufStates.end(),
                  "completion for unknown buffer %#llx",
                  (unsigned long long)comp.hostAddr);
        BufState &bs = it->second;
        if (bs.outstanding > 0)
            bs.outstanding--;
        if (bs.io == nullptr) {
            // Tombstoned buffer: its slot abandoned these attempts
            // (deadline fail or cross-ring re-issue) and moved to a
            // fresh lease. The DMA landed harmlessly in the parked
            // buffer; the last twin returns it to the pool.
            recoveryStats.staleCompletions++;
            if (bs.outstanding == 0) {
                freeBuffers.push_back(
                    reinterpret_cast<std::uint8_t *>(
                        static_cast<std::uintptr_t>(buf)));
                bufStates.erase(it);
            }
            continue;
        }
        FiberIo &io = *bs.io;
        const std::size_t slot = bs.slot;
        kmuAssert(slot < maxBatch, "completion buffer slot %zu", slot);
        if (!io.pending[slot] || io.gen[slot] != tag) {
            // Stale: a duplicate from a recovered loss, or the slow
            // twin of a timed-out request. Same ring as the live
            // generation (cross-ring attempts are tombstoned above),
            // so FIFO order makes its buffer write harmless — the
            // live generation's data lands after it.
            recoveryStats.staleCompletions++;
            continue;
        }
        // Exact-data contract: the completion's CRC covers the line
        // the device meant to deliver. A mismatch means the payload
        // was corrupted in flight; re-issue instead of handing the
        // application bad data.
        if (crc32c(&io.buffers[slot][0], cacheLineSize) != comp.crc) {
            recoveryStats.crcFailures++;
            reissueRead(io, slot);
            continue;
        }
        io.pending[slot] = false;
        if (controller != nullptr) {
            shardSignals[io.shard[slot]].completions++;
            if (shardLive[io.shard[slot]] > 0)
                shardLive[io.shard[slot]]--;
        }
        if (governor)
            governor->sample(io.attempts[slot] > 0);
        slotDone(io);
    }
    return count;
}

void
SwQueueEngine::writeLine(Addr addr, const void *line)
{
    kmuAssert(isLineAligned(addr), "writeLine needs alignment");

    // Claim a staging buffer; reap completions while waiting so a
    // write burst longer than the pool self-drains.
    while (freeStaging.empty()) {
        stagingStalls++;
        stalledWait();
    }
    const std::size_t slot = freeStaging.back();
    freeStaging.pop_back();
    std::memcpy(&staging[slot]->line[0], line, cacheLineSize);

    WriteState &ws = writeState[slot];
    ws.pending = true;
    ws.gen = std::uint8_t(ws.gen + 1u);
    ws.firstGen = ws.gen;
    ws.outstanding = 0;
    ws.leftRing = false;
    ws.line = addr;
    ws.attempts = 0;
    ws.issuedAt = pollTick;
    ws.deadlineAt = pollTick + backoff.deadlinePolls(1);
    ws.seq = ++writeSeq;

    const std::uint32_t shard = routeForOrdered(addr, slot);
    ws.shard = shard;
    RequestDescriptor desc = RequestDescriptor::write(
        addr, topo::taggedShard(
                  RequestDescriptor::taggedHost(
                      reinterpret_cast<std::uintptr_t>(
                          &staging[slot]->line[0]),
                      ws.gen),
                  shard));
    {
        SwQueuePair &qp = *pairs[shard];
        RoleGuard host(qp.hostRole);
        while (!qp.submit(desc)) {
            if (controller != nullptr)
                shardSignals[shard].rejects++;
            stalledWait();
        }
    }
    ws.outstanding++;
    if (controller != nullptr)
        shardLive[shard]++;
    writeCount++;
    access_trace::writeMark(addr);
    inFlight++;
    doorbellIfRequested();
    // Posted: return without blocking the fiber.
}

void
SwQueueEngine::write64(Addr addr, std::uint64_t value)
{
    // No byte enables in the line-granular protocol: fetch the
    // containing line, merge, and write it back.
    const Addr line_addr = lineAlign(addr);
    alignas(cacheLineSize) std::uint8_t buf[cacheLineSize];
    readLines(&line_addr, 1, buf);
    std::memcpy(buf + (addr - line_addr), &value, sizeof(value));
    writeLine(line_addr, buf);
}

bool
SwQueueEngine::pollCompletions()
{
    polls++;
    tickWatchdog();
    if (inFlight == 0)
        return false; // true deadlock: nothing will ever complete

    std::size_t pending = 0;
    for (SwQueuePair *pair : pairs)
        pending += pair->pendingCompletions();
    if (pending == 0) {
        // Nothing has arrived yet: hand the CPU to the device
        // instead of spinning it off the core (the single-CPU
        // analogue of the paper's dedicated device).
        deviceBackoff();
    }
    drainCompletions();
    watchdogScan();
    healthEpochMaybe();

    // Returning true keeps the scheduler polling while requests are
    // in flight at the device, even if this pass woke nobody.
    return true;
}

} // namespace kmu
