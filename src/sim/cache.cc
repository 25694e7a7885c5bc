#include "sim/cache.h"

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

Cache::Cache(const CacheParams &params, Cache *next, unsigned memLatency)
    : params_(params), next_(next), memLatency_(memLatency)
{
    BP5_ASSERT(isPow2(params_.lineBytes), "line size must be a power of 2");
    BP5_ASSERT(params_.assoc > 0, "associativity must be positive");
    uint64_t lines = params_.sizeBytes / params_.lineBytes;
    BP5_ASSERT(lines % params_.assoc == 0, "size/assoc mismatch");
    numSets_ = static_cast<unsigned>(lines / params_.assoc);
    BP5_ASSERT(isPow2(numSets_), "set count must be a power of 2");
    lineShift_ = floorLog2(params_.lineBytes);
    tagShift_ = lineShift_ + floorLog2(numSets_);
    lines_.resize(lines);
}

uint64_t
Cache::lineIndex(uint64_t addr) const
{
    uint64_t set = (addr >> lineShift_) & (numSets_ - 1);
    return set * params_.assoc;
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> tagShift_;
}

unsigned
Cache::access(uint64_t addr, bool is_write, bool is_writeback, uint64_t now)
{
    ++stats_.accesses;
    if (is_write)
        ++stats_.writes;
    if (is_writeback)
        ++stats_.writebacksIn;
    uint64_t base = lineIndex(addr);
    uint64_t tag = tagOf(addr);

    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (l.valid && l.tag == tag) {
            l.lruStamp = ++stamp_;
            if (is_write)
                l.dirty = true;
            unsigned extra = 0;
            if (l.prefetched) {
                // First demand touch of a prefetched line: pay the
                // remaining in-flight cycles if the fill has not
                // arrived yet (partial hit).
                ++stats_.prefetchHits;
                l.prefetched = false;
                if (l.readyCycle > now)
                    extra = unsigned(l.readyCycle - now);
            }
            return params_.hitLatency + extra;
        }
    }

    // Miss: fetch from below, allocate, evict LRU.
    ++stats_.misses;
    unsigned below = next_ ? next_->access(addr, false) : memLatency_;

    Line &v = allocate(base, tag);
    v.dirty = is_write;
    return params_.hitLatency + below;
}

/** Pick the LRU victim in the set at @p base, write it back if dirty,
 *  and re-tag it.  Returns the (valid, clean, demand-stamped) line;
 *  the caller sets dirty/prefetched as appropriate. */
Cache::Line &
Cache::allocate(uint64_t base, uint64_t tag)
{
    unsigned victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (!l.valid) {
            victim = w;
            break;
        }
        if (l.lruStamp < oldest) {
            oldest = l.lruStamp;
            victim = w;
        }
    }
    Line &v = lines_[base + victim];
    if (v.valid && v.prefetched)
        ++stats_.prefetchUseless; // evicted before any demand touch
    if (v.valid && v.dirty) {
        ++stats_.writebacks;
        // Present the victim to the next level so its write traffic is
        // accounted; write buffers keep this off the critical path, so
        // the returned latency is discarded.
        if (next_) {
            uint64_t set = base / params_.assoc;
            uint64_t victimAddr =
                (v.tag * numSets_ + set) * params_.lineBytes;
            (void)next_->access(victimAddr, true, /*is_writeback=*/true);
        }
    }
    v.valid = true;
    v.dirty = false;
    v.prefetched = false;
    v.readyCycle = 0;
    v.tag = tag;
    v.lruStamp = ++stamp_;
    return v;
}

bool
Cache::prefetchFill(uint64_t addr, uint64_t now)
{
    uint64_t base = lineIndex(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (l.valid && l.tag == tag)
            return false; // already resident (or already in flight)
    }
    ++stats_.prefetchIssued;
    // The fill reads the level below as a demand access there (a real
    // prefetch occupies the lower levels the same way).
    unsigned below = next_ ? next_->access(addr, false) : memLatency_;
    Line &v = allocate(base, tag);
    v.prefetched = true;
    v.readyCycle = now + params_.hitLatency + below;
    return true;
}

bool
Cache::probe(uint64_t addr) const
{
    uint64_t base = lineIndex(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = lines_[base + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &l : lines_)
        l = Line();
    // Reset the LRU clock too: a flushed cache must be bit-for-bit
    // identical to a freshly constructed one (Machine::reset relies on
    // this for run-to-run reproducibility).
    stamp_ = 0;
}

} // namespace bp5::sim
