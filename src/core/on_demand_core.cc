#include "core/on_demand_core.hh"

namespace kmu
{

OnDemandCore::OnDemandCore(std::string name, EventQueue &queue, CoreId id,
                           const SystemConfig &config, IssueLine issue,
                           StatGroup *stat_parent)
    : CoreBase(std::move(name), queue, id, config, std::move(issue),
               stat_parent)
{
    kmuAssert(cfg.smtContexts >= 1, "need at least one SMT context");
    ctxs.resize(cfg.smtContexts);
    robShare = std::max<std::uint64_t>(1,
                                       cfg.robSize / cfg.smtContexts);
    const std::uint64_t smallest =
        cfg.iterationInstrs(IterationPlan{1, 0});
    for (Context &ctx : ctxs)
        ctx.window.init(std::max<std::uint64_t>(1, robShare / smallest));
}

std::uint32_t
OnDemandCore::maxInWindow() const
{
    const std::uint64_t per_iter = cfg.iterationInstrs();
    return std::uint32_t(
        std::max<std::uint64_t>(1, robShare / per_iter));
}

void
OnDemandCore::start()
{
    for (std::uint32_t c = 0; c < ctxs.size(); ++c)
        admitLoop(c);
}

void
OnDemandCore::admitLoop(std::uint32_t ctx_id)
{
    Context &ctx = ctxs[ctx_id];
    if (ctx.issuing)
        return;

    // Serving mode: an iteration only starts once the driver has a
    // request for this SMT context. The wake re-enters this loop on
    // arrival; an already-bound iteration (re-entry) admits at once.
    if (cfg.admitGate &&
        !cfg.admitGate(id(), ctx_id, ctx.nextIter, [this, ctx_id]() {
            eventQueue().scheduleLambda(
                curTick(), [this, ctx_id]() { admitLoop(ctx_id); },
                EventPriority::CpuTick, serveWakeName);
        })) {
        return;
    }

    // Admit the next iteration if its instructions fit in this
    // context's ROB share alongside the in-flight ones; an empty
    // window always admits (the machine makes forward progress even
    // when one iteration exceeds the share).
    const IterationPlan plan = cfg.planFor(id(), ctx_id, ctx.nextIter);
    kmuAssert(plan.batch >= 1 && plan.batch <= AccessEngine::maxBatch,
              "bad plan batch %u", plan.batch);
    const std::uint64_t instrs = cfg.iterationInstrs(plan);
    if (!ctx.window.empty() &&
        ctx.instrsInWindow + instrs > robShare) {
        return;
    }

    // Writes are posted stores: they occupy no LFB entry and block
    // nothing; only the read slots contribute outstanding fills.
    std::uint32_t reads = 0;
    for (std::uint32_t slot = 0; slot < plan.batch; ++slot)
        reads += isWriteSlot(ctx_id, ctx.nextIter, slot) ? 0 : 1;

    ctx.issuing = true;
    ctx.instrsInWindow += instrs;
    ctx.window.push_back(IterRec{plan, ctx.nextIter, instrs, reads,
                                 plan.batch - reads});
    issueSlot(ctx_id, ctx.nextIter, 0);
}

void
OnDemandCore::issueSlot(std::uint32_t ctx_id, std::uint64_t iter,
                        std::uint32_t slot)
{
    Context &ctx = ctxs[ctx_id];
    const IterationPlan plan = ctx.window.back().plan;
    if (slot == plan.batch) {
        // All loads of this iteration issued.
        ctx.issuing = false;
        ctx.nextIter++;
        // An all-write iteration has nothing to wait for.
        IterRec &rec = ctx.window.back();
        if (rec.fillsLeft == 0 && !rec.ready) {
            rec.ready = true;
            tryWork();
        }
        admitLoop(ctx_id);
        return;
    }

    if (isWriteSlot(ctx_id, iter, slot)) {
        issueSlot(ctx_id, iter, slot + 1);
        return;
    }

    const Addr line = lineAlign(addrFor(ctx_id, iter, slot));
    if (l1Hit(line)) {
        // Cache hit: satisfied without the LFB or the device.
        IterRec &rec = ctx.window.back();
        kmuAssert(rec.fillsLeft > 0, "hit for a filled iteration");
        rec.fillsLeft--;
        accessesCompleted++;
        issueSlot(ctx_id, iter, slot + 1);
        return;
    }

    const auto result = lineFillBuffers.request(
        line, [this, ctx_id, iter]() { onFill(ctx_id, iter); });

    switch (result) {
      case Lfb::AllocResult::NewEntry:
        issueLine(line);
        issueSlot(ctx_id, iter, slot + 1);
        break;
      case Lfb::AllocResult::Merged:
        // Another context already has this line in flight.
        issueSlot(ctx_id, iter, slot + 1);
        break;
      case Lfb::AllocResult::NoEntry:
        // Demand load: stall issue until an entry frees up.
        lineFillBuffers.waitForFree(
            [this, ctx_id, iter, slot]() {
                issueSlot(ctx_id, iter, slot);
            });
        break;
    }
}

void
OnDemandCore::onFill(std::uint32_t ctx_id, std::uint64_t iter)
{
    Context &ctx = ctxs[ctx_id];
    kmuAssert(iter >= ctx.oldestIter &&
              iter - ctx.oldestIter < ctx.window.size(),
              "fill for an iteration outside the window");
    IterRec &rec = ctx.window[std::size_t(iter - ctx.oldestIter)];
    kmuAssert(rec.fillsLeft > 0, "duplicate fill");
    rec.fillsLeft--;
    accessesCompleted++;
    if (rec.fillsLeft == 0) {
        rec.ready = true;
        tryWork();
    }
}

void
OnDemandCore::tryWork()
{
    if (workBusy)
        return;

    // Round-robin among contexts whose oldest iteration is ready:
    // the shared execution resource runs one work block at a time.
    std::uint32_t picked = ~0u;
    for (std::uint32_t i = 0; i < ctxs.size(); ++i) {
        const std::uint32_t c =
            (workRotor + i) % std::uint32_t(ctxs.size());
        if (!ctxs[c].window.empty() && ctxs[c].window.front().ready) {
            picked = c;
            break;
        }
    }
    if (picked == ~0u)
        return;
    workRotor = (picked + 1) % std::uint32_t(ctxs.size());

    workBusy = true;
    Context &ctx = ctxs[picked];
    const IterRec &front = ctx.window.front();
    const Tick extra = Tick(front.writes) * cfg.storeLatency;
    chargeAndThen(cfg.workTicks(front.plan) + extra, [this, picked]() {
        workBusy = false;
        Context &done_ctx = ctxs[picked];
        const IterRec rec = done_ctx.window.front();
        done_ctx.window.pop_front();
        done_ctx.oldestIter++;
        done_ctx.instrsInWindow -= rec.instrs;
        // Emit the iteration's posted writes alongside its work.
        for (std::uint32_t slot = 0; slot < rec.plan.batch; ++slot) {
            if (isWriteSlot(picked, rec.index, slot))
                emitWrite(picked, rec.index, slot);
        }
        retireIteration(rec.plan);
        if (cfg.onRetire)
            cfg.onRetire(id(), picked, rec.index);
        admitLoop(picked);
        tryWork();
    });
}

} // namespace kmu
