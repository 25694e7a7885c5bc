#include "obs/site_profile.h"

namespace bp5::obs {

void
SiteProfileSink::onRunBegin(const sim::MachineConfig &)
{
    lastCommit_ = 0; // commit cycles are run-local
}

void
SiteProfileSink::onInstruction(const sim::InstRecord &r,
                               const sim::Counters &)
{
    if (r.commitCycle <= lastCommit_)
        return;
    uint64_t gap = r.commitCycle - lastCommit_ - 1;
    if (gap > 0) // only sites that closed a gap get an entry
        stalls_[r.pc].cycles[size_t(r.component)] += gap;
    lastCommit_ = r.commitCycle;
}

void
SiteProfileSink::onBranch(const sim::BranchRecord &r)
{
    sim::BranchSiteStats &site = branches_[r.pc];
    ++site.executions;
    if (r.taken)
        ++site.taken;
    if (r.directionMispredict)
        ++site.mispredDirection;
    else if (r.targetMispredict)
        ++site.mispredTarget;
}

} // namespace bp5::obs
