/**
 * @file
 * Lightweight statistics package (gem5-flavoured).
 *
 * Components own a StatGroup and register named statistics with it.
 * At the end of a run the group can be dumped as aligned text or CSV.
 * Four stat kinds cover everything kmu needs:
 *
 *  - Counter:   a monotonically increasing event count / byte count.
 *  - Average:   running mean of sampled values (also tracks min/max).
 *  - LogHistogram: power-of-two bins with underflow/overflow.
 *  - Gauge:     pull-based value read from its owner at dump time
 *               (bridges counters that live outside the stats
 *               package, e.g. lock-free ring counters).
 */

#ifndef KMU_COMMON_STATS_HH
#define KMU_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace kmu
{

class StatGroup;

/** Common metadata for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup &parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    /** Render the value portion of a dump line. */
    virtual std::string render() const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string statName;
    std::string statDesc;
};

/** Monotonic event counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { count += 1; return *this; }
    Counter &operator+=(std::uint64_t n) { count += n; return *this; }

    std::uint64_t value() const { return count; }

    std::string render() const override;
    void reset() override { count = 0; }

  private:
    std::uint64_t count = 0;
};

/** Running mean over sampled values; tracks min and max too. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void sample(double value);

    std::uint64_t samples() const { return sampleCount; }
    double mean() const;
    double min() const { return sampleCount ? minValue : 0.0; }
    double max() const { return sampleCount ? maxValue : 0.0; }

    std::string render() const override;
    void reset() override;

  private:
    std::uint64_t sampleCount = 0;
    double sum = 0.0;
    double minValue = std::numeric_limits<double>::infinity();
    double maxValue = -std::numeric_limits<double>::infinity();
};

/**
 * Pull-based statistic: the value is fetched from a callback at
 * render time instead of being pushed sample by sample. Used to
 * surface counters whose owner cannot depend on the stats package
 * (the SPSC ring's push/pop/reject atomics, device-side totals).
 * reset() latches the current value as a baseline so dumps after a
 * resetAll() report deltas, matching Counter semantics.
 */
class Gauge : public StatBase
{
  public:
    using Source = std::function<std::uint64_t()>;

    Gauge(StatGroup &parent, std::string name, std::string desc,
          Source source);

    std::uint64_t value() const;

    std::string render() const override;
    void reset() override { baseline = source ? source() : 0; }

  private:
    Source source;
    std::uint64_t baseline = 0;
};

/**
 * Logarithmically bucketed histogram: bucket i spans
 * [lo*2^i, lo*2^(i+1)), with underflow below lo and overflow at or
 * above lo*2^buckets. The geometric spacing makes one histogram span
 * nanosecond cache hits and multi-microsecond device misses — the
 * paper's killer-microsecond range — without thousands of linear
 * bins. Bucket search walks the boundaries with the same doubling
 * arithmetic bucketLow() exposes, so boundary values land exactly in
 * the bucket whose lower edge they equal on every compiler.
 */
class LogHistogram : public StatBase
{
  public:
    /**
     * @param lo       lower bound of bucket 0 (must be > 0).
     * @param buckets  number of log2 buckets before overflow.
     */
    LogHistogram(StatGroup &parent, std::string name,
                 std::string desc, double lo, std::size_t buckets);

    void sample(double value);

    /** Fold another log-histogram's counts in; shapes must match. */
    void merge(const LogHistogram &other);

    std::uint64_t samples() const { return sampleCount; }
    std::size_t buckets() const { return counts.size(); }
    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts.at(i);
    }
    /** Inclusive lower edge of bucket @p i (= lo * 2^i). */
    double bucketLow(std::size_t i) const;
    std::uint64_t underflow() const { return below; }
    std::uint64_t overflow() const { return above; }
    double mean() const;

    /**
     * Estimate the @p q quantile (q in [0, 1], clamped) of the
     * sampled distribution, interpolating linearly inside the bucket
     * the target rank lands in. Underflow samples clamp to the lower
     * bound and overflow samples to the overflow bucket's lower edge,
     * so the estimate is always finite. Returns 0 for an empty
     * histogram. Deterministic: a pure walk over the same doubling
     * boundaries sample() buckets with.
     */
    double quantile(double q) const;

    std::string render() const override;
    void reset() override;

  private:
    double lowBound;
    std::vector<std::uint64_t> counts;
    std::uint64_t below = 0;
    std::uint64_t above = 0;
    std::uint64_t sampleCount = 0;
    double sum = 0.0;
};

/**
 * Named collection of statistics belonging to one component.
 * Groups nest: a SimSystem group holds per-core child groups.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return groupName; }

    /** Fully qualified dotted name (parent.child). */
    std::string path() const;

    /** Dump this group and children as aligned "path value # desc". */
    void dump(std::ostream &os) const;

    /** Reset all stats in this group and its children. */
    void resetAll();

    /** @{ Registration hooks used by StatBase / child groups. */
    void registerStat(StatBase *stat);
    void registerChild(StatGroup *child);
    void unregisterChild(StatGroup *child);
    /** @} */

    const std::vector<StatBase *> &stats() const { return ownedStats; }

  private:
    std::string groupName;
    StatGroup *parent;
    std::vector<StatBase *> ownedStats;
    std::vector<StatGroup *> children;
};

} // namespace kmu

#endif // KMU_COMMON_STATS_HH
