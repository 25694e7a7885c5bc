#include "sim/lsq.h"

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

LoadStoreQueue::LoadStoreQueue(const LsqParams &params, bool classic)
    : params_(params), classic_(classic)
{
    if (!classic_) {
        BP5_ASSERT(params_.loads > 0 && params_.stores > 0,
                   "LSQ depths must be positive");
        BP5_ASSERT(isPow2(params_.mdpEntries),
                   "MDP table size must be a power of 2");
        loadCommit_.assign(params_.loads, 0);
        storeCommit_.assign(params_.stores, 0);
        sq_.assign(params_.stores, SqEntry());
        mdp_.assign(params_.mdpEntries, 0);
    }
}

void
LoadStoreQueue::beginRun()
{
    table_.fill(StoreSlot());
    if (!classic_) {
        loadCommit_.assign(params_.loads, 0);
        storeCommit_.assign(params_.stores, 0);
        sq_.assign(params_.stores, SqEntry());
        loadSeq_ = storeSeq_ = sqSeq_ = 0;
        loadPos_ = storePos_ = sqPos_ = 0;
    }
}

void
LoadStoreQueue::reset()
{
    beginRun();
    if (!classic_)
        mdp_.assign(params_.mdpEntries, 0);
}

uint64_t
LoadStoreQueue::reserveLsq(bool isLoad, uint64_t dc, bool *limited)
{
    const std::vector<uint64_t> &ring = isLoad ? loadCommit_ : storeCommit_;
    uint64_t seq = isLoad ? loadSeq_ : storeSeq_;
    if (seq >= ring.size()) {
        // The slot this op reuses belongs to the entry `depth` back;
        // dispatch stalls until that entry has committed.
        uint64_t freeAt = ring[isLoad ? loadPos_ : storePos_];
        if (dc <= freeAt) {
            dc = freeAt + 1;
            *limited = true;
        }
    }
    return dc;
}

LoadStoreQueue::Order
LoadStoreQueue::orderLoadLsq(uint64_t pc, uint64_t addr, uint64_t ready)
{
    Order o;
    o.ready = ready;
    uint64_t g = granuleOf(addr);

    // Youngest matching store still in the queue window.
    const SqEntry *match = nullptr;
    size_t depth = sq_.size();
    uint64_t n = sqSeq_ < depth ? sqSeq_ : depth;
    size_t pos = sqPos_;
    for (uint64_t back = 0; back < n; ++back) {
        pos = (pos == 0 ? depth : pos) - 1;
        if (sq_[pos].granule == g) {
            match = &sq_[pos];
            break;
        }
    }
    if (!match)
        return o;

    if (match->complete <= ready) {
        // Store data already available: forward from the queue.
        o.forwarded = true;
        return o;
    }

    bool predictedDependent =
        !params_.speculativeLoads ||
        mdp_[(pc >> 2) & (mdp_.size() - 1)] == pc;
    if (predictedDependent) {
        // Wait for the store's data, then forward.
        o.ready = match->complete;
        o.forwarded = true;
        return o;
    }

    // Speculate past the unresolved store; the collision is discovered
    // when the store completes, squashing the load.  Train the MDP so
    // the next dynamic instance of this load waits instead.
    o.violation = true;
    o.conflictComplete = match->complete;
    mdp_[(pc >> 2) & (mdp_.size() - 1)] = pc;
    return o;
}

unsigned
LoadStoreQueue::occupancy(bool loadQueue, uint64_t cycle) const
{
    if (classic_)
        return 0;
    const std::vector<uint64_t> &ring = loadQueue ? loadCommit_ : storeCommit_;
    uint64_t seq = loadQueue ? loadSeq_ : storeSeq_;
    uint64_t n = seq < ring.size() ? seq : ring.size();
    unsigned occ = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (ring[i] > cycle)
            ++occ;
    }
    return occ;
}

} // namespace bp5::sim
