#include "common/stats.hh"

#include <algorithm>
#include <iomanip>

#include "common/logging.hh"

namespace kmu
{

StatBase::StatBase(StatGroup &parent, std::string name, std::string desc)
    : statName(std::move(name)), statDesc(std::move(desc))
{
    parent.registerStat(this);
}

std::string
Counter::render() const
{
    return csprintf("%llu", (unsigned long long)count);
}

Gauge::Gauge(StatGroup &parent, std::string name, std::string desc,
             Source value_source)
    : StatBase(parent, std::move(name), std::move(desc)),
      source(std::move(value_source))
{
    kmuAssert(source != nullptr, "gauge needs a value source");
}

std::uint64_t
Gauge::value() const
{
    return source() - baseline;
}

std::string
Gauge::render() const
{
    return csprintf("%llu", (unsigned long long)value());
}

void
Average::sample(double value)
{
    sampleCount++;
    sum += value;
    minValue = std::min(minValue, value);
    maxValue = std::max(maxValue, value);
}

double
Average::mean() const
{
    return sampleCount ? sum / double(sampleCount) : 0.0;
}

std::string
Average::render() const
{
    return csprintf("%.4f (n=%llu min=%.4f max=%.4f)", mean(),
                    (unsigned long long)sampleCount, min(), max());
}

void
Average::reset()
{
    sampleCount = 0;
    sum = 0.0;
    minValue = std::numeric_limits<double>::infinity();
    maxValue = -std::numeric_limits<double>::infinity();
}

LogHistogram::LogHistogram(StatGroup &parent, std::string name,
                           std::string desc, double lo,
                           std::size_t buckets)
    : StatBase(parent, std::move(name), std::move(desc)),
      lowBound(lo), counts(buckets, 0)
{
    kmuAssert(lo > 0.0, "log histogram needs a positive lower bound");
    kmuAssert(buckets > 0, "log histogram needs at least one bucket");
}

double
LogHistogram::bucketLow(std::size_t i) const
{
    double edge = lowBound;
    for (std::size_t k = 0; k < i; ++k)
        edge *= 2.0;
    return edge;
}

void
LogHistogram::sample(double value)
{
    sampleCount++;
    sum += value;
    if (value < lowBound) {
        below++;
        return;
    }
    // Walk the doubling boundaries instead of taking log2(): the
    // comparison then uses the exact same doubles bucketLow()
    // produces, so edge values can't mis-bucket to FP rounding.
    double edge = lowBound;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        edge *= 2.0;
        if (value < edge) {
            counts[i]++;
            return;
        }
    }
    above++;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    kmuAssert(other.lowBound == lowBound &&
              other.counts.size() == counts.size(),
              "cannot merge log histograms of different shape");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    below += other.below;
    above += other.above;
    sampleCount += other.sampleCount;
    sum += other.sum;
}

double
LogHistogram::mean() const
{
    return sampleCount ? sum / double(sampleCount) : 0.0;
}

double
LogHistogram::quantile(double q) const
{
    if (sampleCount == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;

    // Target rank in (0, n]: the q-quantile is the value at position
    // q*n of the sorted samples (with rank 0 pinned into the first
    // populated bucket so quantile(0) reports that bucket's edge).
    const double target = q * double(sampleCount);
    double cum = double(below);
    if (target <= cum && below > 0)
        return lowBound; // underflow values clamp to the lower bound
    double edge = lowBound;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double low = edge;
        edge *= 2.0;
        if (counts[i] == 0)
            continue;
        const double in_bucket = double(counts[i]);
        if (target <= cum + in_bucket || i + 1 == counts.size()) {
            if (target > cum + in_bucket)
                break; // ranks beyond the last bucket: overflow
            double frac = (target - cum) / in_bucket;
            if (frac < 0.0)
                frac = 0.0;
            return low + frac * (edge - low);
        }
        cum += in_bucket;
    }
    // Overflow samples clamp to the overflow bucket's lower edge.
    return bucketLow(counts.size());
}

std::string
LogHistogram::render() const
{
    std::string out = csprintf("n=%llu mean=%.3f [",
                               (unsigned long long)sampleCount, mean());
    out += csprintf("<%llu|", (unsigned long long)below);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        out += csprintf("%llu", (unsigned long long)counts[i]);
        if (i + 1 != counts.size())
            out += " ";
    }
    out += csprintf("|>%llu]", (unsigned long long)above);
    return out;
}

void
LogHistogram::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    below = above = sampleCount = 0;
    sum = 0.0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent_group)
    : groupName(std::move(name)), parent(parent_group)
{
    if (parent)
        parent->registerChild(this);
}

StatGroup::~StatGroup()
{
    if (parent)
        parent->unregisterChild(this);
}

std::string
StatGroup::path() const
{
    if (!parent)
        return groupName;
    return parent->path() + "." + groupName;
}

void
StatGroup::registerStat(StatBase *stat)
{
    ownedStats.push_back(stat);
}

void
StatGroup::registerChild(StatGroup *child)
{
    children.push_back(child);
}

void
StatGroup::unregisterChild(StatGroup *child)
{
    auto it = std::find(children.begin(), children.end(), child);
    if (it != children.end())
        children.erase(it);
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = path();
    for (const StatBase *stat : ownedStats) {
        os << std::left << std::setw(48) << (prefix + "." + stat->name())
           << " " << std::setw(32) << stat->render()
           << " # " << stat->desc() << "\n";
    }
    for (const StatGroup *child : children)
        child->dump(os);
}

void
StatGroup::resetAll()
{
    for (StatBase *stat : ownedStats)
        stat->reset();
    for (StatGroup *child : children)
        child->resetAll();
}

} // namespace kmu
