#include "apps/access_trace.hh"

#include "common/logging.hh"

namespace kmu
{

std::uint64_t
AccessTrace::totalReads() const
{
    std::uint64_t total = 0;
    for (auto b : batches)
        total += b;
    return total;
}

double
AccessTrace::meanBatch() const
{
    if (batches.empty())
        return 0.0;
    return double(totalReads()) / double(batches.size());
}

std::function<IterationPlan(CoreId, ThreadId, std::uint64_t)>
AccessTrace::makePlan(std::uint32_t work) const
{
    kmuAssert(!batches.empty(), "cannot plan from an empty trace");
    // Copy the batch sequence into the closure so the plan outlives
    // this AccessTrace.
    auto seq = std::make_shared<std::vector<std::uint8_t>>(batches);
    return [seq, work](CoreId core, ThreadId thread,
                       std::uint64_t iter) {
        const std::uint64_t offset =
            (std::uint64_t(core) * 131 + thread) * 17 + iter;
        const std::uint8_t batch = (*seq)[offset % seq->size()];
        return IterationPlan{batch, work};
    };
}

} // namespace kmu
