/**
 * @file
 * Per-PC profiles of timed runs, collected as a trace sink: the
 * per-branch-site PMU counters (sim::BranchProfile, joinable with the
 * static branch classes of src/analysis via analysis::joinProfile)
 * and the flat stall profile (sim::StallProfile: every non-completing
 * cycle charged to the instruction whose commit closed the gap, split
 * by CpiComponent — the timing model's own cycle-accounting rule, so
 * the sites sum to cycles minus completing cycles).
 *
 * Both profiles accumulate across run() calls for the sink's lifetime.
 */

#ifndef BIOPERF5_OBS_SITE_PROFILE_H
#define BIOPERF5_OBS_SITE_PROFILE_H

#include <cstdint>

#include "sim/counters.h"
#include "sim/trace.h"

namespace bp5::obs {

/** Per-branch-site and per-PC stall profiles; see the file comment. */
class SiteProfileSink final : public sim::TraceSink
{
  public:
    // TraceSink
    void onRunBegin(const sim::MachineConfig &) override;
    void onInstruction(const sim::InstRecord &r,
                       const sim::Counters &c) override;
    void onBranch(const sim::BranchRecord &r) override;

    const sim::BranchProfile &branches() const { return branches_; }
    const sim::StallProfile &stalls() const { return stalls_; }

  private:
    sim::BranchProfile branches_;
    sim::StallProfile stalls_;
    uint64_t lastCommit_ = 0; ///< cycles 1..lastCommit_ are charged
};

} // namespace bp5::obs

#endif // BIOPERF5_OBS_SITE_PROFILE_H
