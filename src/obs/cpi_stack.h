/**
 * @file
 * POWER5-style CPI stacks over the simulator's cycle-accounting
 * counters.  The machine attributes every cycle to exactly one
 * sim::CpiComponent (sum bit-exact to total cycles — the invariant
 * the paper's PMU cycle-accounting facility provides in hardware);
 * this module is the presentation side: a small stack value type, the
 * manifest cells `bp5-report` diffs, an aligned text-bar renderer,
 * and a trace sink that also collects log2 latency histograms.
 */

#ifndef BIOPERF5_OBS_CPI_STACK_H
#define BIOPERF5_OBS_CPI_STACK_H

#include <array>
#include <string>

#include "sim/counters.h"
#include "sim/trace.h"
#include "support/histogram.h"
#include "support/result.h"

namespace bp5::obs {

/** One CPI stack: cycles per component plus the total they sum to. */
struct CpiStack
{
    std::array<uint64_t, sim::kNumCpiComponents> cycles{};
    uint64_t totalCycles = 0;
    uint64_t instructions = 0;

    static CpiStack fromCounters(const sim::Counters &c);

    /** Does the stack satisfy the sum-to-total invariant bit-exactly? */
    bool consistent() const;

    uint64_t sum() const;

    /** Share of total cycles in component @p c (0 on empty stack). */
    double share(sim::CpiComponent c) const;

    void add(const CpiStack &o);
};

/**
 * Append the exact per-component cycle counts (`cpi_<key>` cells,
 * integers, byte-diffable) plus the headline `cpi` value to a
 * manifest row.  bp5-report reads these cells back out of manifests.
 */
void addCpiCells(support::ResultRow &row, const sim::Counters &c);

/**
 * Render the stack as aligned text bars, one line per component:
 * label, cycles, share and a bar scaled to @p barWidth characters.
 */
std::string renderCpiStack(const CpiStack &s, unsigned barWidth = 40);

/**
 * Trace sink accumulating CPI stacks across runs plus two log2
 * histograms: fetch-to-commit latency per instruction and the commit
 * gap (cycles since the previous commit) — the distribution view of
 * the same stalls the stack aggregates.
 */
class CpiStackSink final : public sim::TraceSink
{
  public:
    void onRunEnd(const sim::Counters &final) override;
    void onInstruction(const sim::InstRecord &r,
                       const sim::Counters &c) override;

    const CpiStack &stack() const { return stack_; }
    const support::Log2Histogram &latency() const { return latency_; }
    const support::Log2Histogram &commitGap() const { return gap_; }

  private:
    CpiStack stack_;
    support::Log2Histogram latency_;
    support::Log2Histogram gap_;
    uint64_t lastCommit_ = 0;
};

} // namespace bp5::obs

#endif // BIOPERF5_OBS_CPI_STACK_H
