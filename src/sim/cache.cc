#include "sim/cache.h"

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

Cache::Cache(const CacheParams &params, Cache *next, unsigned memLatency)
    : params_(params), next_(next), memLatency_(memLatency)
{
    BP5_ASSERT(isPow2(params_.lineBytes), "line size must be a power of 2");
    // Lines of 2+ bytes keep kNoLine out of the line-number range.
    BP5_ASSERT(params_.lineBytes >= 2, "line size must be at least 2");
    BP5_ASSERT(params_.assoc > 0, "associativity must be positive");
    uint64_t lines = params_.sizeBytes / params_.lineBytes;
    BP5_ASSERT(lines % params_.assoc == 0, "size/assoc mismatch");
    numSets_ = static_cast<unsigned>(lines / params_.assoc);
    BP5_ASSERT(isPow2(numSets_), "set count must be a power of 2");
    lineShift_ = floorLog2(params_.lineBytes);
    tagShift_ = lineShift_ + floorLog2(numSets_);
    lines_ = support::ZeroPageArray<Line>(lines);
}

void
Cache::remember(uint64_t addr, uint64_t idx)
{
    memoLine_ = addr >> lineShift_;
    memoIdx_ = idx;
}

Cache::Outcome
Cache::accessSlow(uint64_t addr, bool is_write, bool is_writeback,
                  uint64_t now)
{
    ++stats_.accesses;
    if (is_write)
        ++stats_.writes;
    if (is_writeback) {
        // A writeback-in may stamp or allocate a line; keep the fast
        // path to the demand stream's own last line.
        ++stats_.writebacksIn;
        memoLine_ = kNoLine;
    }
    uint64_t base = lineIndex(addr);
    uint64_t tag = tagOf(addr);

    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (l.tag == tag && valid(l)) {
            l.lruStamp = ++stamp_;
            if (is_write)
                l.dirty = true;
            Outcome o{params_.hitLatency};
            if (l.prefetched) {
                // First demand touch of a prefetched line: pay the
                // remaining in-flight cycles if the fill has not
                // arrived yet (partial hit).
                ++stats_.prefetchHits;
                o.prefetchedHit = true;
                l.prefetched = false;
                if (l.readyCycle > now)
                    o.latency += unsigned(l.readyCycle - now);
            }
            if (!is_writeback)
                remember(addr, base + w);
            return o;
        }
    }

    // Miss: fetch from below, then allocate, evicting the LRU victim
    // (its writeback is not part of this access's outcome).
    ++stats_.misses;
    Outcome o{params_.hitLatency, true};
    if (next_) {
        Outcome below = next_->access(addr, false);
        o.latency += below.latency;
        o.missBelow = below.miss;
    } else {
        o.latency += memLatency_;
    }

    Line &v = allocate(base, tag);
    v.dirty = is_write;
    if (!is_writeback)
        remember(addr, uint64_t(&v - lines_.data()));
    return o;
}

/** Pick the LRU victim in the set at @p base (the first invalid way,
 *  else the oldest stamp), write it back if dirty, and re-tag it.
 *  Returns the (valid, clean, demand-stamped) line; the caller sets
 *  dirty/prefetched as appropriate. */
Cache::Line &
Cache::allocate(uint64_t base, uint64_t tag)
{
    unsigned victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (!valid(l)) {
            victim = w;
            break;
        }
        if (l.lruStamp < oldest) {
            oldest = l.lruStamp;
            victim = w;
        }
    }
    Line &v = lines_[base + victim];
    const bool live = valid(v);
    if (live && v.prefetched)
        ++stats_.prefetchUseless; // evicted before any demand touch
    if (live && v.dirty) {
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
    memoLine_ = kNoLine; // a fill may evict or re-stamp the memo line
    uint64_t base = lineIndex(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (l.tag == tag && valid(l))
            return false; // already resident (or already in flight)
    }
    ++stats_.prefetchIssued;
    // The fill reads the level below as a demand access there (a real
    // prefetch occupies the lower levels the same way).
    unsigned below = next_ ? next_->access(addr, false).latency
                           : memLatency_;
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
        if (l.tag == tag && valid(l))
            return true;
    }
    return false;
}

} // namespace bp5::sim
