#include "sim/btac.h"

#include <algorithm>

#include "support/logging.h"

namespace bp5::sim {

Btac::Btac(const BtacParams &params)
    : params_(params), scoreMax_((1u << params.scoreBits) - 1),
      entries_(params.entries)
{
    BP5_ASSERT(params.entries > 0, "BTAC needs at least one entry");
    BP5_ASSERT(params.predictThreshold <= scoreMax_,
               "prediction threshold exceeds score range");
}

void
Btac::reset()
{
    std::fill(entries_.begin(), entries_.end(), Entry());
    stats_ = BtacStats();
}

int
Btac::findEntry(uint64_t pc) const
{
    for (size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].valid && entries_[i].tag == pc)
            return static_cast<int>(i);
    }
    return -1;
}

Btac::Lookup
Btac::lookup(uint64_t pc)
{
    ++stats_.lookups;
    Lookup res;
    int i = findEntry(pc);
    if (i < 0)
        return res;
    const Entry &e = entries_[static_cast<size_t>(i)];
    res.hit = true;
    ++stats_.hits;
    if (e.score >= params_.predictThreshold) {
        res.predict = true;
        res.nia = e.nia;
        ++stats_.predictions;
    }
    return res;
}

void
Btac::update(uint64_t pc, bool taken, uint64_t target, const Lookup &used)
{
    int i = findEntry(pc);
    bool stored_correct = i >= 0 && taken &&
                          entries_[static_cast<size_t>(i)].nia == target;

    if (used.predict) {
        bool used_correct = taken && used.nia == target;
        if (used_correct)
            ++stats_.correct;
        else
            ++stats_.mispredicts;
    }

    if (i >= 0) {
        Entry &e = entries_[static_cast<size_t>(i)];
        if (stored_correct) {
            if (e.score < scoreMax_)
                ++e.score;
        } else {
            bool used_wrong = used.predict &&
                              !(taken && used.nia == target);
            if (params_.resetOnMispredict && used_wrong)
                e.score = 0;
            else if (e.score > 0)
                --e.score;
            if (e.score == 0 && taken)
                e.nia = target; // retrain the target at zero confidence
        }
        return;
    }

    // Allocate only for taken branches (score-based replacement).
    if (!taken)
        return;
    size_t victim = 0;
    unsigned best = ~0u;
    for (size_t j = 0; j < entries_.size(); ++j) {
        if (!entries_[j].valid) {
            victim = j;
            best = 0;
            break;
        }
        if (entries_[j].score < best) {
            best = entries_[j].score;
            victim = j;
        }
    }
    Entry &e = entries_[victim];
    e.valid = true;
    e.tag = pc;
    e.nia = target;
    e.score = params_.initialScore;
    ++stats_.allocations;
}

} // namespace bp5::sim
