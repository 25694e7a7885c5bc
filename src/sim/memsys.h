/**
 * @file
 * The composable memory system of the core model (DESIGN.md §4.11):
 * a load/store queue (sim/lsq.h) plus an optional stride / next-line
 * prefetch engine (sim/prefetch.h) attached to the L1D of the
 * Machine's cache hierarchy.  The Machine delegates every step of its
 * memory path here — queue reservation at dispatch, store-to-load
 * ordering, the demand cache access, store completion, commit — and
 * owns all Counters itself; the MemorySystem reports per-operation
 * outcomes.
 *
 * MemSysParams::Mode::Classic reproduces the pre-MemorySystem machine
 * bit-for-bit (unbounded queues, direct-mapped store table, no
 * forwarding, no speculation, no prefetch); this is the default and is
 * differentially tested against captured pre-refactor counters.
 */

#ifndef BIOPERF5_SIM_MEMSYS_H
#define BIOPERF5_SIM_MEMSYS_H

#include <memory>

#include "sim/cache.h"
#include "sim/lsq.h"
#include "sim/prefetch.h"

namespace bp5::sim {

/** Memory-system configuration (part of MachineConfig). */
struct MemSysParams
{
    enum class Mode : unsigned
    {
        Classic, ///< pre-MemorySystem behaviour, bit-for-bit
        Lsq,     ///< finite LSQ + forwarding + speculative disambiguation
    };

    Mode mode = Mode::Classic;
    LsqParams lsq;
    PrefetchParams l1dPrefetch;

    bool classic() const { return mode == Mode::Classic; }

    friend bool operator==(const MemSysParams &,
                           const MemSysParams &) = default;
};

/** Stable key for manifests ("classic" / "lsq"). */
const char *memSysModeKey(MemSysParams::Mode m);

/** The memory system; see the file comment. */
class MemorySystem
{
  public:
    /** Outcome of one demand cache access. */
    struct Access
    {
        unsigned latency = 0;      ///< added cycles (hierarchy walk)
        bool l1dMiss = false;
        bool l2Miss = false;
        bool prefetchedHit = false; ///< demand hit on a prefetched line
        unsigned prefetchIssued = 0; ///< fills triggered by this access
    };

    MemorySystem(const MemSysParams &params, Cache *l1d);

    const MemSysParams &params() const { return params_; }
    bool classic() const { return params_.classic(); }

    /** Start a run with empty queues and store table, in O(1) (see
     *  LoadStoreQueue::beginRun); Machine calls it at each run start. */
    void beginRun();

    /** Full reset: queues, dependence predictor, prefetch table. */
    void reset();

    // Per-operation steps of the timing model.  The mode is a template
    // argument, Classic == classic(): the machine runs one loop per
    // memory-system mode, so none of these tests the mode.

    /** Dispatch-time queue reservation (see LoadStoreQueue::reserveLsq). */
    template <bool Classic>
    uint64_t
    reserve(bool isLoad, uint64_t dc, bool *limited)
    {
        if constexpr (Classic)
            return dc;
        else
            return lsq_.reserveLsq(isLoad, dc, limited);
    }

    /** Order a load against older stores (see LoadStoreQueue). */
    template <bool Classic>
    LoadStoreQueue::Order
    orderLoad(uint64_t pc, uint64_t addr, uint64_t ready)
    {
        if constexpr (Classic)
            return lsq_.orderLoadClassic(addr, ready);
        else
            return lsq_.orderLoadLsq(pc, addr, ready);
    }

    /** Demand access from the core: walks the hierarchy, classifies
     *  the miss level, and runs the attached prefetch engine.
     *  Inline: one call per memory op on the timing hot loop. */
    [[gnu::always_inline]] Access
    access(uint64_t pc, uint64_t addr, bool isStore, uint64_t now)
    {
        Cache::Outcome o =
            l1d_->access(addr, isStore, /*is_writeback=*/false, now);
        Access r;
        r.latency = o.latency;
        r.l1dMiss = o.miss;
        r.l2Miss = o.missBelow;
        r.prefetchedHit = o.prefetchedHit;
        if (l1dPf_)
            r.prefetchIssued += l1dPf_->observe(pc, addr, r.l1dMiss, now);
        return r;
    }

    /** A store's data became available at @p cc. */
    template <bool Classic>
    void
    storeComplete(uint64_t addr, uint64_t cc)
    {
        if constexpr (Classic)
            lsq_.storeCompleteClassic(addr, cc);
        else
            lsq_.storeCompleteLsq(addr, cc);
    }

    /** The memory op committed (frees its queue slot). */
    template <bool Classic>
    void
    commit(bool isLoad, uint64_t commitCycle)
    {
        if constexpr (!Classic)
            lsq_.commitLsq(isLoad, commitCycle);
    }

    /** Queue occupancy at @p cycle (lsq mode; 0 in classic). */
    unsigned
    occupancy(bool loadQueue, uint64_t cycle) const
    {
        return lsq_.occupancy(loadQueue, cycle);
    }

  private:
    MemSysParams params_;
    Cache *l1d_;
    LoadStoreQueue lsq_;
    std::unique_ptr<Prefetcher> l1dPf_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_MEMSYS_H
