#include "apps/access_trace.hh"

#include <charconv>
#include <fstream>

#include "common/logging.hh"

namespace kmu
{

namespace
{

/** One line of a saved trace: a decimal batch size in [1, maxBatch]
 *  and nothing else. Bad input exits via fatal(), naming the line. */
std::uint32_t
parseBatch(const std::string &path, std::size_t line_no,
           const std::string &text)
{
    if (text.empty())
        fatal("%s:%zu: empty line, expected a batch size", path.c_str(),
              line_no);
    long long value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("%s:%zu: batch '%s' out of range [1, %zu]", path.c_str(),
              line_no, text.c_str(), AccessEngine::maxBatch);
    if (ec != std::errc() || ptr != end)
        fatal("%s:%zu: batch '%s' is not a number", path.c_str(),
              line_no, text.c_str());
    if (value < 0)
        fatal("%s:%zu: negative batch %lld", path.c_str(), line_no,
              value);
    if (value == 0)
        fatal("%s:%zu: zero batch", path.c_str(), line_no);
    if ((unsigned long long)value > AccessEngine::maxBatch)
        fatal("%s:%zu: batch %lld out of range [1, %zu]", path.c_str(),
              line_no, value, AccessEngine::maxBatch);
    return std::uint32_t(value);
}

} // anonymous namespace

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

void
AccessTrace::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    for (auto b : batches)
        out << unsigned(b) << "\n";
}

AccessTrace
AccessTrace::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    AccessTrace trace;
    std::string text;
    std::size_t line_no = 0;
    while (std::getline(in, text))
        trace.add(parseBatch(path, ++line_no, text));
    if (trace.empty())
        fatal("%s: empty access trace", path.c_str());
    return trace;
}

} // namespace kmu
