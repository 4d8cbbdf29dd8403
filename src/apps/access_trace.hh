/**
 * @file
 * Access traces: the bridge from real application runs to the
 * timing model (the paper's Fig. 10 methodology).
 *
 * The paper replaces each application's post-access computation with
 * the benign work loop and keeps only the core data-structure
 * accesses, batched as the application's dependences permit (4 for
 * Memcached and Bloom filter, 2 for BFS). We reproduce this by
 * recording, from a functional run of the ported application, the
 * sequence of batch sizes it issues; the timing model then replays
 * that sequence as its per-iteration plan with the standard work
 * count attached.
 */

#ifndef KMU_APPS_ACCESS_TRACE_HH
#define KMU_APPS_ACCESS_TRACE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/system_config.hh"

namespace kmu
{

class AccessTrace
{
  public:
    /** Record one batched access group of @p batch reads. */
    void
    add(std::uint32_t batch)
    {
        kmuAssert(batch >= 1 && batch <= AccessEngine::maxBatch,
                  "trace batch out of range");
        batches.push_back(std::uint8_t(batch));
    }

    std::size_t size() const { return batches.size(); }
    bool empty() const { return batches.empty(); }
    std::uint32_t batchAt(std::size_t i) const { return batches.at(i); }

    /** Total reads across all records. */
    std::uint64_t totalReads() const;

    /** Mean batch size (the workload's software MLP). */
    double meanBatch() const;

    /**
     * Produce a SystemConfig::plan that cycles this trace (offset by
     * thread so cores don't run in lockstep), attaching @p work
     * instructions of benign work per read.
     */
    std::function<IterationPlan(CoreId, ThreadId, std::uint64_t)>
    makePlan(std::uint32_t work) const;

  private:
    std::vector<std::uint8_t> batches;
};

/**
 * AccessEngine decorator that records the batch-size sequence of
 * every read call while forwarding to the wrapped engine.
 */
class TracingEngine : public AccessEngine
{
  public:
    TracingEngine(AccessEngine &wrapped, AccessTrace &sink)
        : inner(wrapped), trace(sink)
    {
    }

    std::uint64_t
    read64(Addr addr) override
    {
        trace.add(1);
        accessCount++;
        return inner.read64(addr);
    }

    void
    readBatch(const Addr *addrs, std::size_t n,
              std::uint64_t *out) override
    {
        trace.add(std::uint32_t(n));
        accessCount += n;
        inner.readBatch(addrs, n, out);
    }

    void
    readLines(const Addr *addrs, std::size_t n, void *out) override
    {
        trace.add(std::uint32_t(n));
        accessCount += n;
        inner.readLines(addrs, n, out);
    }

    void
    writeLine(Addr addr, const void *line) override
    {
        // Writes are posted and off the critical path (paper
        // conclusion); traces capture the read stream only.
        writeCount++;
        inner.writeLine(addr, line);
    }

    void
    write64(Addr addr, std::uint64_t value) override
    {
        writeCount++;
        inner.write64(addr, value);
    }

    Mechanism mechanism() const override { return inner.mechanism(); }

  private:
    AccessEngine &inner;
    AccessTrace &trace;
};

} // namespace kmu

#endif // KMU_APPS_ACCESS_TRACE_HH
