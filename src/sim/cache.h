/**
 * @file
 * Timing-only set-associative cache model with true-LRU replacement and
 * write-back/write-allocate policy.  Caches chain to a next level; the
 * bottom of the chain is main memory with a fixed latency.  The model
 * tracks tags only (data lives in sim::Memory), which is exact for the
 * hit/miss behaviour the paper reports (Table I's L1D miss rate).
 */

#ifndef BIOPERF5_SIM_CACHE_H
#define BIOPERF5_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

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

    /**
     * Access @p addr (read or write).  Returns the total added latency
     * in cycles (this level's hit latency plus any lower-level cost).
     * Dirty evictions are presented to the next level as zero-latency
     * writeback accesses (write buffers keep them off the critical
     * path), so every level's CacheStats see the real write traffic.
     * A demand hit on a line brought in by prefetchFill() that has not
     * yet arrived pays the remaining cycles (@p now vs the line's
     * arrival stamp) on top of the hit latency.
     * @param is_writeback true when this access is a writeback arriving
     *        from the level above (accounted separately, latency unused)
     * @param now issue cycle of the access (partial-hit accounting;
     *        irrelevant when no prefetcher targets this level)
     */
    unsigned access(uint64_t addr, bool is_write, bool is_writeback = false,
                    uint64_t now = 0);

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
     * Invalidate all lines and the LRU clock (keeps statistics).  A
     * flushed cache makes bit-for-bit the same decisions as a freshly
     * constructed one.
     */
    void flush();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats(); }
    const CacheParams &params() const { return params_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false; ///< brought in by prefetchFill, untouched
        uint64_t readyCycle = 0; ///< prefetch arrival cycle
        uint64_t lruStamp = 0;
    };

    uint64_t lineIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;
    Line &allocate(uint64_t base, uint64_t tag);

    CacheParams params_;
    Cache *next_;
    unsigned memLatency_;
    unsigned numSets_;
    unsigned lineShift_; ///< log2(lineBytes)
    unsigned tagShift_;  ///< log2(lineBytes * numSets)
    std::vector<Line> lines_; // numSets * assoc
    uint64_t stamp_ = 0;
    CacheStats stats_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_CACHE_H
