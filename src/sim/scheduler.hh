/**
 * @file
 * Pending-event scheduler for the discrete-event kernel.
 *
 * The EventQueue's service order is the total key (when, priority,
 * insertion sequence) — seq is unique, so the order is a strict total
 * order and ANY structure that yields the minimum remaining key
 * services events in exactly the same sequence. The event-queue
 * stress suite holds that spec as a naive reference queue and checks
 * this scheduler against it op by op; the golden / determinism gates
 * hold it end to end.
 *
 * LadderScheduler is a three-rung hierarchical calendar ("ladder")
 * tuned for the near-monotone tick distribution the core models
 * produce. Insertion is O(1): an event lands in a bucket of the
 * finest rung whose window covers its tick (1.024 ns buckets, then
 * 262 ns, then 67 us; events beyond ~17 ms go to an overflow list
 * that is re-bucketed when reached). Service pulls one finest-rung
 * bucket at a time into a sorted "active" run; same-window
 * insertions (the dominant schedule-at-curTick case) binary-insert
 * into that run. Every comparison that decides order happens on the
 * full (when, prio, seq) key inside one bucket's sort, so the service
 * order is provably the global key order: buckets partition time,
 * rungs cascade in time order, and no event can enter a bucket that
 * has already been drained (EventQueue guarantees when >= now).
 *
 * Cancellation stays lazy (seq parked in a set, entries dropped when
 * met); compact() walks the structure to drop them eagerly when the
 * dead fraction grows.
 */

#ifndef KMU_SIM_SCHEDULER_HH
#define KMU_SIM_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "check/invariant.hh"
#include "common/types.hh"

namespace kmu
{

class Event;

namespace sched
{

/** Seqs of descheduled entries not yet dropped from a scheduler. */
using CancelSet = std::unordered_set<std::uint64_t>;

/** Drop @p seq from @p cancels if it is parked there. The hash is
 *  skipped while nothing is cancelled, the common case. */
inline bool
takeCancelled(CancelSet &cancels, std::uint64_t seq)
{
    return !cancels.empty() && cancels.erase(seq) != 0;
}

/** One pending-event record; the scheduler never touches `event`. */
struct Entry
{
    Tick when;
    std::int32_t prio;
    std::uint64_t seq;
    Event *event;
};

/** Strict total service order: (when, prio, seq), seq unique. */
inline bool
entryLess(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.prio != b.prio)
        return a.prio < b.prio;
    return a.seq < b.seq;
}

/**
 * Three-rung ladder/calendar scheduler. See the file comment for the
 * structure; the invariants that make it exact are:
 *
 *  (I1) every stored entry is in exactly one place: the active run,
 *       one rung bucket whose window covers its tick, or overflow;
 *  (I2) `frontEnd` is the exclusive end of the region fully
 *       transferred to the active run — an insert below it joins the
 *       run via sorted insert, so the run always holds every pending
 *       entry with when < frontEnd in exact key order; the run also
 *       owns the uncovered gap an overflow rebase can open between
 *       frontEnd and the coarsest rung's window start (see insert()),
 *       though refill's next cascade closes it before any insert;
 *  (I3) rung windows only advance, and a rung's scan position sits
 *       at the bucket boundary `frontEnd` maps to, so an insert with
 *       when >= frontEnd always lands in a bucket that is still
 *       ahead of the scan.
 *
 * KMU_MODEL_CHECK holds them in code without a per-event walk: I2 in
 * O(1) on every finest-rung pull, I2/I3 in O(rungs) after every
 * cascade and when refill finds nothing, I1 in compact().
 */
class LadderScheduler
{
  public:
    LadderScheduler()
    {
        rung[0].shift = shift0;
        rung[1].shift = shift1;
        rung[2].shift = shift2;
    }

    void
    insert(const Entry &e)
    {
        ++count;
        // (I2): the active run owns everything below frontEnd. Once
        // the bucket containing maxTick has been pulled, frontEnd
        // saturates and every insert joins the run directly.
        if (e.when < frontEnd || frontSaturated) {
            sortedInsertActive(e);
            return;
        }
        for (Rung &r : rung) {
            // Window test via subtraction: immune to the end
            // overflowing past maxTick. when >= winStart holds by
            // (I3) whenever the window can match at all.
            if (e.when >= r.winStart &&
                e.when - r.winStart < (Tick(bucketCount) << r.shift)) {
                const std::size_t idx =
                    std::size_t((e.when - r.winStart) >> r.shift);
                r.bucket[idx].push_back(e);
                setBit(r.occ, idx);
                return;
            }
        }
        // An overflow rebase parks the coarsest window at the
        // aligned-down overflow minimum, which can lie well past the
        // current service point — leaving the gap
        // [frontEnd, rung2.winStart) covered by no rung. An entry
        // landing there must NOT join the overflow list: overflow is
        // only consulted once every rung drains, i.e. after the
        // window's (later!) entries have been serviced. The active
        // run is the one structure consulted before the rungs, so
        // the gap belongs to it; sorted insertion keeps it exact.
        if (e.when < rung[2].winStart) {
            sortedInsertActive(e);
            return;
        }
        over.push_back(e);
    }

    bool
    peek(Entry &out, CancelSet &cancels)
    {
        while (true) {
            while (head < active.size()) {
                if (takeCancelled(cancels, active[head].seq)) {
                    ++head;
                    --count;
                    continue;
                }
                out = active[head];
                return true;
            }
            if (!refill(cancels))
                return false;
        }
    }

    void
    popFront()
    {
        ++head;
        --count;
    }

    /**
     * Drop every entry named in @p cancels. The walk meets every
     * stored entry, so it also model-checks (I1): each survivor sits
     * where its tick says, and the survivors add up to size().
     */
    void
    compact(CancelSet &cancels)
    {
        std::size_t walked = 0;
        auto dead = [&](const Entry &e) {
            if (cancels.erase(e.seq)) {
                --count;
                return true;
            }
            ++walked;
            return false;
        };
        active.erase(std::remove_if(active.begin() +
                                        std::ptrdiff_t(head),
                                    active.end(), dead),
                     active.end());
        bool placed = std::is_sorted(active.begin() +
                                         std::ptrdiff_t(head),
                                     active.end(), entryLess);
        for (Rung &r : rung) {
            for (std::size_t i = 0; i < bucketCount; ++i) {
                // An entry in an unmarked bucket is lost to service;
                // skipping it here shows up as a count mismatch.
                if (!testBit(r.occ, i))
                    continue;
                auto &vec = r.bucket[i];
                vec.erase(std::remove_if(vec.begin(), vec.end(), dead),
                          vec.end());
                for (const Entry &e : vec)
                    placed = placed && e.when >= r.winStart &&
                             (e.when - r.winStart) >> r.shift == i;
                if (vec.empty())
                    clearBit(r.occ, i);
            }
        }
        over.erase(std::remove_if(over.begin(), over.end(), dead),
                   over.end());
        const Tick coarse_end = bucketStart(rung[2], bucketCount);
        for (const Entry &e : over)
            placed = placed && e.when >= coarse_end;
        KMU_MODEL_CHECK(walked == count,
                        "(I1) ladder walk met %zu entries, %zu stored",
                        walked, count);
        KMU_MODEL_CHECK(placed,
                        "(I1) ladder entry stored outside its window");
    }

    std::size_t size() const { return count; }

    /** Visit every stored entry, consuming it: afterwards
     *  size()==0 and nothing is stored. */
    template <typename Fn>
    void
    forEachEntry(Fn fn)
    {
        for (std::size_t i = head; i < active.size(); ++i)
            fn(active[i]);
        for (Rung &r : rung) {
            for (std::size_t i = 0; i < bucketCount; ++i) {
                for (const Entry &e : r.bucket[i])
                    fn(e);
                r.bucket[i].clear();
            }
            for (std::uint64_t &word : r.occ)
                word = 0;
        }
        for (const Entry &e : over)
            fn(e);
        over.clear();
        active.clear();
        head = 0;
        count = 0;
    }

  private:
    static constexpr unsigned shift0 = 10; //!< 1.024 ns buckets
    static constexpr unsigned shift1 = 18; //!< 262 ns buckets
    static constexpr unsigned shift2 = 26; //!< 67 us buckets
    static constexpr std::size_t bucketCount = 256;
    static constexpr std::size_t bitmapWords = bucketCount / 64;
    /** Buckets at or below this size promote straight into the
     *  active run instead of cascading a rung finer. */
    static constexpr std::size_t promoteMax = 16;

    struct Rung
    {
        Tick winStart = 0;   //!< aligned to bucketCount << shift
        std::size_t pos = 0; //!< next bucket index to scan
        unsigned shift = 0;
        std::uint64_t occ[bitmapWords] = {};
        std::vector<Entry> bucket[bucketCount];
    };

    static void
    setBit(std::uint64_t *occ, std::size_t i)
    {
        occ[i >> 6] |= std::uint64_t(1) << (i & 63);
    }

    static void
    clearBit(std::uint64_t *occ, std::size_t i)
    {
        occ[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    static bool
    testBit(const std::uint64_t *occ, std::size_t i)
    {
        return (occ[i >> 6] >> (i & 63)) & 1;
    }

    /** Lowest set bit index >= from, or bucketCount if none. */
    static std::size_t
    findFrom(const std::uint64_t *occ, std::size_t from)
    {
        if (from >= bucketCount)
            return bucketCount;
        std::size_t word = from >> 6;
        std::uint64_t bits = occ[word] &
                             (~std::uint64_t(0) << (from & 63));
        while (true) {
            if (bits)
                return (word << 6) +
                       std::size_t(__builtin_ctzll(bits));
            if (++word >= bitmapWords)
                return bucketCount;
            bits = occ[word];
        }
    }

    void
    sortedInsertActive(const Entry &e)
    {
        // Only [head, end) is pending; anything before head already
        // ran, and by EventQueue's when >= now guard the new entry
        // belongs at or after the current service point.
        auto it = std::upper_bound(active.begin() +
                                       std::ptrdiff_t(head),
                                   active.end(), e, entryLess);
        active.insert(it, e);
    }

    /** Start of @p r's bucket @p idx, saturating at maxTick. */
    static Tick
    bucketStart(const Rung &r, std::size_t idx)
    {
        const Tick off = Tick(idx) << r.shift;
        return r.winStart > maxTick - off ? maxTick : r.winStart + off;
    }

    /**
     * Which part of (I2)/(I3) the front and rung windows break, or
     * nullptr; @p before is frontEnd before the move. Holds wherever
     * an insert may come next, so not between a rebase and its
     * cascade. O(rungs): it reads the run's last entry and each
     * rung's bitmap, never a bucket.
     */
    const char *
    frontViolation(Tick before) const
    {
        if (frontSaturated)
            return nullptr; // every insert joins the run
        if (frontEnd < before)
            return "(I2) frontEnd moved back";
        if (head < active.size() && active.back().when >= frontEnd)
            return "(I2) the run holds a tick at or past frontEnd";
        // First tick that neither the run nor a finer rung covers.
        Tick edge = frontEnd;
        for (const Rung &r : rung) {
            const std::size_t first = findFrom(r.occ, 0);
            if (first < r.pos)
                return "(I3) a rung stores a bucket behind its scan";
            if (first < bucketCount &&
                bucketStart(r, first + 1) <= frontEnd)
                return "(I2) a rung stores a bucket below frontEnd";
            // Windows tile upward from the front with no gap the run
            // would have to own, and an insert that reaches this
            // rung (at or past edge) lands at or past its scan.
            if (r.winStart > edge)
                return "(I2) a gap opens below a rung window";
            if (bucketStart(r, r.pos) > edge)
                return "(I3) a rung's scan is past where inserts land";
            edge = std::max(edge, bucketStart(r, bucketCount));
        }
        return nullptr;
    }

    /** Model-check (I2)/(I3) after the front or a window moved. */
    void
    checkFront(Tick before) const
    {
        KMU_MODEL_CHECK(frontViolation(before) == nullptr,
                        "ladder %s (frontEnd %llu, was %llu)",
                        frontViolation(before),
                        (unsigned long long)frontEnd,
                        (unsigned long long)before);
    }

    /**
     * Pull the next non-empty finest-rung bucket into the active
     * run, cascading coarser rungs / overflow as needed. Returns
     * false only when nothing is stored at all.
     */
    bool
    refill(CancelSet &cancels)
    {
        while (true) {
            // Finest rung: next bucket becomes the active run.
            std::size_t b = findFrom(rung[0].occ, rung[0].pos);
            if (b < bucketCount) {
                auto &vec = rung[0].bucket[b];
                active.clear();
                head = 0;
                for (const Entry &e : vec) {
                    if (takeCancelled(cancels, e.seq))
                        --count;
                    else
                        active.push_back(e);
                }
                vec.clear();
                clearBit(rung[0].occ, b);
                rung[0].pos = b + 1;
                const Tick end = rung[0].winStart +
                                 (Tick(b + 1) << shift0);
                if (end < rung[0].winStart + (Tick(b) << shift0))
                    frontSaturated = true; // wrapped past maxTick
                else
                    frontEnd = end;
                if (active.empty())
                    continue; // every entry was cancelled
                std::sort(active.begin(), active.end(), entryLess);
                // (I2) in O(1): the front advanced to the end of a
                // bucket that held nothing at or past it.
                KMU_MODEL_CHECK(frontSaturated ||
                                    active.back().when < frontEnd,
                                "ladder (I2) run holds tick %llu past "
                                "its front %llu",
                                (unsigned long long)active.back().when,
                                (unsigned long long)frontEnd);
                return true;
            }
            switch (cascade(rung[0], rung[1], cancels)) {
              case Spill::Promoted:
                if (active.empty())
                    continue; // every entry was cancelled
                return true;
              case Spill::Cascaded:
                continue;
              case Spill::None:
                break;
            }
            switch (cascade(rung[1], rung[2], cancels)) {
              case Spill::Promoted:
                if (active.empty())
                    continue;
                return true;
              case Spill::Cascaded:
                continue;
              case Spill::None:
                break;
            }
            if (rebaseOverflow(cancels))
                continue;
            checkFront(frontEnd);
            return false;
        }
    }

    /** What advancing a coarser rung produced. */
    enum class Spill
    {
        None,    //!< rung empty; fall through to the next source
        Cascaded,//!< bucket re-distributed one rung finer; rescan
        Promoted //!< sparse bucket sorted straight into the run
    };

    /**
     * Spill @p from's next bucket across @p to (one rung finer) — or,
     * when the bucket is sparse, promote it directly into the active
     * run. Promotion skips the finer-rung round trip that dominates
     * on µs-spaced event streams (each event would be copied through
     * every rung just to land alone in its own bucket); it is exact
     * because the bucket is a complete time slice: after the sort the
     * run holds every pending entry below the bucket's end, which
     * becomes frontEnd (invariant I2), and the finer windows left
     * stale lie entirely below frontEnd so no insert can land there
     * (the frontEnd test comes first).
     */
    Spill
    cascade(Rung &to, Rung &from, CancelSet &cancels)
    {
        const std::size_t j = findFrom(from.occ, from.pos);
        if (j >= bucketCount)
            return Spill::None;
        auto &vec = from.bucket[j];
        const Tick before = frontEnd;
        if (vec.size() <= promoteMax) {
            active.clear();
            head = 0;
            for (const Entry &e : vec) {
                if (takeCancelled(cancels, e.seq))
                    --count;
                else
                    active.push_back(e);
            }
            vec.clear();
            clearBit(from.occ, j);
            from.pos = j + 1;
            const Tick end = from.winStart +
                             (Tick(j + 1) << from.shift);
            if (end < from.winStart + (Tick(j) << from.shift))
                frontSaturated = true; // wrapped past maxTick
            else
                frontEnd = end;
            std::sort(active.begin(), active.end(), entryLess);
            checkFront(before);
            return Spill::Promoted;
        }
        const Tick start = from.winStart + (Tick(j) << from.shift);
        KMU_MODEL_CHECK(start >= to.winStart,
                        "ladder window moved back from %llu to %llu",
                        (unsigned long long)to.winStart,
                        (unsigned long long)start);
        to.winStart = start;
        to.pos = 0;
        frontEnd = to.winStart;
        for (const Entry &e : vec) {
            if (takeCancelled(cancels, e.seq)) {
                --count;
                continue;
            }
            const std::size_t idx =
                std::size_t((e.when - to.winStart) >> to.shift);
            to.bucket[idx].push_back(e);
            setBit(to.occ, idx);
        }
        vec.clear();
        clearBit(from.occ, j);
        from.pos = j + 1;
        checkFront(before);
        return Spill::Cascaded;
    }

    /** Re-window the coarsest rung at the overflow minimum. */
    bool
    rebaseOverflow(CancelSet &cancels)
    {
        // Drop cancelled entries BEFORE computing the new window.
        // If the window moved first and every entry then turned out
        // to be dead, winStart would sit parked far ahead while
        // frontEnd stays low: a later insert into the uncovered gap
        // would join the active run while an earlier-tick insert
        // could still land in a stale finer-rung window — serviced
        // after it, breaking the exact order.
        auto dead = [&](const Entry &e) {
            if (takeCancelled(cancels, e.seq)) {
                --count;
                return true;
            }
            return false;
        };
        over.erase(std::remove_if(over.begin(), over.end(), dead),
                   over.end());
        if (over.empty())
            return false;
        Tick min_when = maxTick;
        for (const Entry &e : over)
            min_when = std::min(min_when, e.when);
        const Tick span = Tick(bucketCount) << shift2;
        Rung &r = rung[2];
        const Tick start = min_when & ~(span - 1);
        KMU_MODEL_CHECK(start >= r.winStart,
                        "ladder overflow window moved back from %llu "
                        "to %llu", (unsigned long long)r.winStart,
                        (unsigned long long)start);
        r.winStart = start;
        r.pos = 0;
        std::vector<Entry> keep;
        for (const Entry &e : over) {
            if (e.when - r.winStart < span) {
                const std::size_t idx =
                    std::size_t((e.when - r.winStart) >> shift2);
                r.bucket[idx].push_back(e);
                setBit(r.occ, idx);
            } else {
                keep.push_back(e);
            }
        }
        over = std::move(keep);
        // The minimum survivor is in-window by construction (the
        // window starts at min_when aligned down), so the rung now
        // holds at least one live entry, and the cascade that
        // follows moves the front into the new window.
        return true;
    }

    Rung rung[3];
    std::vector<Entry> active; //!< sorted pending run, [head, end)
    std::size_t head = 0;
    Tick frontEnd = 0;         //!< exclusive end of the active region
    bool frontSaturated = false;
    std::vector<Entry> over;   //!< beyond the coarsest window
    std::size_t count = 0;     //!< stored entries, dead included
};

} // namespace sched
} // namespace kmu

#endif // KMU_SIM_SCHEDULER_HH
