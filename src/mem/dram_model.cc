#include "mem/dram_model.hh"

#include "trace/trace.hh"

namespace kmu
{

DramModel::DramModel(std::string name, EventQueue &queue, DramParams params,
                     StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      reads(stats(), "reads", "cache-line reads serviced"),
      cfg(params),
      pathQueue(this->name() + ".queue", queue, params.queueDepth, &stats())
{
}

std::uint64_t
DramModel::beginRead(Addr line)
{
    (void)line;
    ++reads;
    const std::uint64_t span = reads.value();
    trace::begin(trace::Kind::DramRead, span, traceTrack());
    return span;
}

void
DramModel::endRead(std::uint64_t span)
{
    pathQueue.release();
    trace::end(trace::Kind::DramRead, span, traceTrack());
}

} // namespace kmu
