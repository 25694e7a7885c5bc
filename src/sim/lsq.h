/**
 * @file
 * Load/store queue model for the one-pass timing engine.
 *
 * Two operating modes, selected at construction:
 *
 *  - **classic**: the pre-MemorySystem behaviour, bit-for-bit.  A
 *    direct-mapped 4096-slot store table keyed on the 8-byte granule
 *    makes a later load to the same granule wait until the store's
 *    completion cycle; queues are unbounded (nothing reserves a slot),
 *    nothing forwards, nothing speculates.  Each slot carries the
 *    epoch (run number) that wrote it, and a slot from an earlier run
 *    never matches, so a new run starts with an empty table without
 *    rewriting it.
 *
 *  - **lsq**: finite load/store queues whose occupancy back-pressures
 *    dispatch (modelled like the ROB: a ring of commit cycles, an
 *    entry frees when the op `depth` back commits), a store queue that
 *    forwards data to matching younger loads at forwardLatency, and
 *    speculative load disambiguation: a load may issue past an older
 *    in-flight store to the same granule; when the addresses collide
 *    the load is squashed and refetched (an ordering-violation flush),
 *    and a store-set style memory-dependence predictor remembers the
 *    load PC so later dynamic instances wait and forward instead.
 *
 * The queue is deliberately counter-free: it reports what happened per
 * operation (Order/reserve results) and the Machine owns all Counters.
 */

#ifndef BIOPERF5_SIM_LSQ_H
#define BIOPERF5_SIM_LSQ_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/zero_page_array.h"

namespace bp5::sim {

/** Sizing and policy knobs of the load/store queue (lsq mode). */
struct LsqParams
{
    unsigned loads = 16;           ///< load-reorder-queue depth
    unsigned stores = 16;          ///< store-reorder-queue depth
    unsigned forwardLatency = 1;   ///< store-to-load forward cycles
    unsigned disambigPenalty = 16; ///< refetch penalty after a violation
    unsigned mdpEntries = 1024;    ///< dependence-predictor slots (pow2)

    friend bool operator==(const LsqParams &, const LsqParams &) = default;
};

/** The load/store queue; see the file comment. */
class LoadStoreQueue
{
  public:
    /** How one load was ordered against older stores. */
    struct Order
    {
        uint64_t ready = 0;       ///< operand-ready cycle after ordering
        bool forwarded = false;   ///< data comes from the store queue
        bool violation = false;   ///< speculated past a conflicting store
        uint64_t conflictComplete = 0; ///< conflicting store's completion
    };

    LoadStoreQueue(const LsqParams &params, bool classic);

    /**
     * Start a run with empty queues and store table; keeps the MDP.
     * O(1): the classic table moves to a new epoch, so every slot
     * written by an earlier run reads as empty; the lsq-mode rings
     * only rewind their counters, because every slot a query reads
     * (reserve, orderLoad, occupancy) was written in the current run.
     */
    void beginRun();

    /** Full reset including the memory-dependence predictor. */
    void reset();

    // One form per mode, for callers that know the mode at compile
    // time (MemorySystem's per-mode steps); calling a form of the other
    // mode is a bug.  A classic queue has no slots: dispatch never
    // waits for one and a commit frees none.

    /** Order a load ready at @p ready after older same-granule stores. */
    Order
    orderLoadClassic(uint64_t addr, uint64_t ready) const
    {
        Order o;
        o.ready = ready;
        uint64_t g = granuleOf(addr);
        const StoreSlot &slot = table_[g & (kTableSlots - 1)];
        if (slot.addr == g && slot.epoch == epoch_ && slot.complete > ready)
            o.ready = slot.complete;
        return o;
    }

    void
    storeCompleteClassic(uint64_t addr, uint64_t cc)
    {
        uint64_t g = granuleOf(addr);
        StoreSlot &slot = table_[g & (kTableSlots - 1)];
        slot.addr = g;
        slot.complete = cc;
        slot.epoch = epoch_;
    }

    /**
     * Claim a queue slot at dispatch.  Returns the (possibly delayed)
     * dispatch cycle; sets @p *limited when the queue was full at
     * @p dc and dispatch had to wait for the oldest entry to commit.
     */
    uint64_t reserveLsq(bool isLoad, uint64_t dc, bool *limited);

    /** Order the load at @p pc / @p addr: forward, wait or speculate. */
    Order orderLoadLsq(uint64_t pc, uint64_t addr, uint64_t ready);

    /** A store's data became available at cycle @p cc. */
    void
    storeCompleteLsq(uint64_t addr, uint64_t cc)
    {
        SqEntry &e = sq_[sqPos_];
        e.granule = granuleOf(addr);
        e.complete = cc;
        ++sqSeq_;
        sqPos_ = advance(sqPos_, sq_.size());
    }

    /** The memory op at the queue head committed at @p commitCycle. */
    void
    commitLsq(bool isLoad, uint64_t commitCycle)
    {
        std::vector<uint64_t> &ring = isLoad ? loadCommit_ : storeCommit_;
        uint64_t &seq = isLoad ? loadSeq_ : storeSeq_;
        size_t &pos = isLoad ? loadPos_ : storePos_;
        ring[pos] = commitCycle;
        ++seq;
        pos = advance(pos, ring.size());
    }

    /** Entries still in flight (commit > @p cycle); 0 in classic mode. */
    unsigned occupancy(bool loadQueue, uint64_t cycle) const;

  private:
    /** 8-byte store-to-load matching granule (the table's key). */
    static uint64_t granuleOf(uint64_t addr) { return addr >> 3; }

    /** Next slot of a ring of @p size after @p pos (no divide). */
    static size_t
    advance(size_t pos, size_t size)
    {
        return ++pos == size ? 0 : pos;
    }

    LsqParams params_;

    // Classic mode: direct-mapped store table (granule -> completion),
    // valid only in the run whose epoch wrote it.  It sits on
    // demand-zero pages (built in classic mode only): an all-zero slot
    // is empty twice over, as its epoch 0 is no run's (beginRun makes
    // epoch_ >= 1) and its completion cycle 0 delays no load.
    static constexpr size_t kTableSlots = 4096;
    struct StoreSlot
    {
        uint64_t addr = 0;
        uint64_t complete = 0;
        uint32_t epoch = 0; ///< epoch_ of the run that wrote the slot

        friend bool operator==(const StoreSlot &,
                               const StoreSlot &) = default;
    };
    support::ZeroPageArray<StoreSlot> table_;
    uint32_t epoch_ = 0; ///< current run; bumped by beginRun()

    // Lsq mode: occupancy rings (commit cycle of the entry depth back).
    // *Seq_ count the ops committed this run; *Pos_ is *Seq_ % depth,
    // the slot the next op takes, kept wrapped so no op divides.
    std::vector<uint64_t> loadCommit_;
    std::vector<uint64_t> storeCommit_;
    uint64_t loadSeq_ = 0;
    uint64_t storeSeq_ = 0;
    size_t loadPos_ = 0;
    size_t storePos_ = 0;

    // Lsq mode: store queue contents for forwarding/disambiguation.
    struct SqEntry
    {
        uint64_t granule = ~0ULL;
        uint64_t complete = 0;
    };
    std::vector<SqEntry> sq_;
    uint64_t sqSeq_ = 0;
    size_t sqPos_ = 0; ///< sqSeq_ % depth: the next store's slot

    // Memory-dependence predictor: load PCs that violated once wait
    // and forward from then on (direct-mapped, tag = full pc).
    std::vector<uint64_t> mdp_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_LSQ_H
