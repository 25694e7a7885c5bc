/**
 * @file
 * Timing-only set-associative cache model with true-LRU replacement and
 * write-back/write-allocate policy.  Caches chain to a next level; the
 * bottom of the chain is main memory with a fixed latency.  The model
 * tracks tags only (data lives in sim::Memory), which is exact for the
 * hit/miss behaviour the paper reports (Table I's L1D miss rate).
 *
 * access() reports its own outcome (latency, a miss here, a miss of
 * the demand fill below), so callers never diff stats().  Its hit path
 * is inline: a demand access to the line the previous access to this
 * cache ended on (nearly every L1I fetch) only bumps the counters and
 * the dirty bit.  It skips that line's LRU stamp, which is exact: the
 * line is already the newest in its set and every later stamp is
 * larger either way, so no victim choice changes.  The memo is an
 * index, cleared by flush(), prefetchFill() and writebacks arriving
 * from above.  Any other demand hit on a line that is not an
 * in-flight prefetch is found by an inline scan of its set.
 *
 * Validity is a stamp compare, not a flag: a line is valid iff its LRU
 * stamp is newer than the clock value recorded at the last flush(), so
 * a flush is one store however large the cache (see DESIGN.md, "Per-job
 * reset").
 */

#ifndef BIOPERF5_SIM_CACHE_H
#define BIOPERF5_SIM_CACHE_H

#include <cstdint>
#include <string>

#include "support/zero_page_array.h"

namespace bp5::sim {

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 128;
    unsigned hitLatency = 1;   ///< cycles added on a hit at this level

    friend bool operator==(const CacheParams &,
                           const CacheParams &) = default;
};

/** Access statistics for one cache level. */
struct CacheStats
{
    uint64_t accesses = 0;   ///< demand accesses + incoming writebacks
    uint64_t misses = 0;
    uint64_t writes = 0;     ///< write accesses (stores + writebacks in)
    uint64_t writebacks = 0; ///< dirty lines evicted from this level
    uint64_t writebacksIn = 0; ///< writebacks received from the level above

    // Prefetch outcomes (zero unless a Prefetcher targets this level).
    uint64_t prefetchIssued = 0;  ///< prefetch fills allocated
    uint64_t prefetchHits = 0;    ///< demand hits on a prefetched line
    uint64_t prefetchUseless = 0; ///< prefetched lines evicted untouched

    double missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }
};

/** One level of a tag-only cache hierarchy. */
class Cache
{
  public:
    /**
     * @param params geometry/latency
     * @param next next level, or nullptr for "memory is next"
     * @param memLatency latency charged when the last level misses.
     *        No default: the knob lives in MachineConfig::memLatency
     *        (230 on the baseline POWER5) so it is sweepable in one
     *        place.
     */
    Cache(const CacheParams &params, Cache *next, unsigned memLatency);

    /** What one access did. */
    struct Outcome
    {
        unsigned latency = 0;  ///< this level's hit latency plus any
                               ///< lower-level cost
        bool miss = false;     ///< missed at this level
        bool missBelow = false; ///< the fill of this demand access
                                ///< missed at the next level too
        bool prefetchedHit = false; ///< first demand touch of a line
                                    ///< brought in by prefetchFill()

        /** The latency, for callers that want only the cost. */
        operator unsigned() const { return latency; }
    };

    /**
     * Access @p addr (read or write) and report the outcome.  Dirty
     * evictions are presented to the next level as zero-latency
     * writeback accesses (write buffers keep them off the critical
     * path), so every level's CacheStats see the real write traffic;
     * they never set Outcome::missBelow, which describes the demand
     * fill alone.  A demand hit on a line brought in by prefetchFill()
     * that has not yet arrived pays the remaining cycles (@p now vs the
     * line's arrival stamp) on top of the hit latency.
     * @param is_writeback true when this access is a writeback arriving
     *        from the level above (accounted separately, latency unused)
     * @param now issue cycle of the access (partial-hit accounting;
     *        irrelevant when no prefetcher targets this level)
     */
    Outcome
    access(uint64_t addr, bool is_write, bool is_writeback = false,
           uint64_t now = 0)
    {
        if (!is_writeback) {
            const uint64_t line = addr >> lineShift_;
            if (line == memoLine_) {
                ++stats_.accesses;
                if (is_write) {
                    ++stats_.writes;
                    lines_[memoIdx_].dirty = true;
                }
                return Outcome{params_.hitLatency};
            }
            const uint64_t base = lineIndex(addr);
            const uint64_t tag = tagOf(addr);
            for (unsigned w = 0; w < params_.assoc; ++w) {
                Line &l = lines_[base + w];
                if (l.tag == tag && valid(l) && !l.prefetched) {
                    ++stats_.accesses;
                    l.lruStamp = ++stamp_;
                    if (is_write) {
                        ++stats_.writes;
                        l.dirty = true;
                    }
                    memoLine_ = line;
                    memoIdx_ = base + w;
                    return Outcome{params_.hitLatency};
                }
            }
        }
        return accessSlow(addr, is_write, is_writeback, now);
    }

    /**
     * Prefetch the line containing @p addr into this level.  Returns
     * false (and does nothing) if the line is already resident;
     * otherwise allocates it clean with an arrival stamp of @p now
     * plus the fill latency from below, evicting (and writing back)
     * the LRU victim exactly as a demand miss would.  Prefetch fills
     * are counted in CacheStats::prefetchIssued, not accesses/misses.
     */
    bool prefetchFill(uint64_t addr, uint64_t now);

    /** True if the line containing @p addr is currently resident. */
    bool probe(uint64_t addr) const;

    /**
     * Invalidate all lines (keeps statistics) in O(1): records the LRU
     * clock, so every line stamped before now reads as invalid, and
     * stale dirty or prefetched lines are dropped without a writeback
     * or a prefetchUseless count.  The clock itself keeps counting;
     * victim choice depends only on the relative stamp order among
     * valid lines, so a flushed cache makes bit-for-bit the same
     * decisions as a freshly constructed one.
     */
    void
    flush()
    {
        flushStamp_ = stamp_;
        memoLine_ = kNoLine;
    }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats(); }
    const CacheParams &params() const { return params_; }

  private:
    /** A tag-array entry; all-zero bytes are a never-filled line. */
    struct Line
    {
        uint64_t tag = 0;
        bool dirty = false;
        bool prefetched = false; ///< brought in by prefetchFill, untouched
        uint64_t readyCycle = 0; ///< prefetch arrival cycle
        uint64_t lruStamp = 0;   ///< 0 = never filled

        friend bool operator==(const Line &, const Line &) = default;
    };

    /** Filled since the last flush(); see the file comment. */
    bool valid(const Line &l) const { return l.lruStamp > flushStamp_; }

    /// memoLine_ when no access is memoised.
    static constexpr uint64_t kNoLine = ~uint64_t(0);

    Outcome accessSlow(uint64_t addr, bool is_write, bool is_writeback,
                       uint64_t now);
    /** Memoise lines_[idx], the line @p addr just ended on. */
    void remember(uint64_t addr, uint64_t idx);
    /** Index in lines_ of way 0 of @p addr's set. */
    uint64_t
    lineIndex(uint64_t addr) const
    {
        return ((addr >> lineShift_) & (numSets_ - 1)) * params_.assoc;
    }
    uint64_t tagOf(uint64_t addr) const { return addr >> tagShift_; }
    Line &allocate(uint64_t base, uint64_t tag);

    CacheParams params_;
    Cache *next_;
    unsigned memLatency_;
    unsigned numSets_;
    unsigned lineShift_; ///< log2(lineBytes)
    unsigned tagShift_;  ///< log2(lineBytes * numSets)
    /// numSets * assoc lines on demand-zero pages: a page becomes
    /// resident when one of its sets first allocates a line.
    support::ZeroPageArray<Line> lines_;
    uint64_t stamp_ = 0;      ///< LRU clock: stamp of the newest line
    uint64_t flushStamp_ = 0; ///< stamp_ at the last flush()
    CacheStats stats_;
    uint64_t memoLine_ = kNoLine; ///< addr >> lineShift_ of the memo line
    uint64_t memoIdx_ = 0;        ///< its index in lines_
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_CACHE_H
