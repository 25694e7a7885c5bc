/**
 * @file
 * Hardware prefetch engines for the tag-only cache model: a next-line
 * stream prefetcher (miss-triggered) and a PC-indexed stride
 * prefetcher with 2-bit confidence, both issuing prefetch fills into
 * an attached Cache level.  Prefetched lines carry an arrival cycle,
 * so a demand access that catches up with an in-flight prefetch pays
 * the remaining latency only (a partial hit); issue/hit/useless
 * outcomes are tracked in CacheStats.
 *
 * The engines observe the demand-access stream only (one observe()
 * call per demand access at the attached level); with kind None the
 * observe hook is never reached and the cache behaves bit-for-bit as
 * it did before prefetching existed.
 */

#ifndef BIOPERF5_SIM_PREFETCH_H
#define BIOPERF5_SIM_PREFETCH_H

#include <cstdint>
#include <vector>

namespace bp5::sim {

class Cache;

/** Configuration of one prefetch engine. */
struct PrefetchParams
{
    enum class Kind : unsigned
    {
        None,     ///< no prefetcher attached
        NextLine, ///< fetch the next sequential line(s) on a miss
        Stride,   ///< PC-indexed stride table with confidence
    };

    Kind kind = Kind::None;
    unsigned degree = 2;       ///< lines issued per trigger
    unsigned distance = 4;     ///< stride: how many strides ahead to land
    unsigned tableEntries = 64; ///< stride: table slots (power of two)

    bool enabled() const { return kind != Kind::None; }

    friend bool operator==(const PrefetchParams &,
                           const PrefetchParams &) = default;
};

/** Stable key for manifests/CSV ("none", "next_line", "stride"). */
const char *prefetchKindKey(PrefetchParams::Kind k);

/**
 * One prefetch engine bound to one cache level.  observe() is called
 * once per demand access at that level and returns the number of
 * fills actually issued (already-resident lines are filtered by the
 * cache and not counted).
 */
class Prefetcher
{
  public:
    Prefetcher(const PrefetchParams &params, Cache *target);

    /**
     * Observe one demand access.
     * @param pc the accessing instruction (stride table index)
     * @param addr the demand address
     * @param miss true when the demand access missed at this level
     * @param now issue cycle of the demand access (arrival stamping)
     * @return number of prefetch fills issued into the cache
     */
    unsigned observe(uint64_t pc, uint64_t addr, bool miss, uint64_t now);

    /** Drop all learned state (Machine::reset). */
    void reset();

  private:
    struct StrideEntry
    {
        uint64_t tag = 0;      ///< full pc, 0 = empty
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        unsigned confidence = 0; ///< saturating 0..3; >=2 issues
    };

    unsigned issueLines(uint64_t firstAddr, int64_t step, uint64_t now);

    PrefetchParams params_;
    Cache *target_;
    std::vector<StrideEntry> table_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_PREFETCH_H
