/**
 * @file
 * Event-hook interface of the timing model: a TraceSink attached to a
 * Machine observes every retired instruction's pipeline lifecycle
 * (fetch / dispatch / issue / writeback / commit cycles), plus branch
 * resolutions, pipeline flushes and cache misses, and sees the running
 * Counters at each commit.
 *
 * The interface lives in sim/ so the Machine can emit events without
 * depending on any concrete sink; the sinks themselves (Perfetto and
 * Konata trace writers, the interval PMU sampler, the multiplexer)
 * live in src/obs.  Each timed run picks its loop once from whether a
 * sink is attached, so with no sink the loop holds no sink code at all
 * — the timing model never computes anything on behalf of an absent
 * observer — and a no-op sink is guaranteed not to perturb Counters
 * (tested: null-sink runs are bit-identical to no-sink runs in every
 * machine shape).
 *
 * Because the timing model is one-pass (DESIGN.md §4.2), the per-stage
 * events of one instruction are delivered together, as one InstRecord
 * carrying all stage cycles, at the point the instruction is scheduled;
 * records arrive in program (= commit) order.
 */

#ifndef BIOPERF5_SIM_TRACE_H
#define BIOPERF5_SIM_TRACE_H

#include <cstdint>

#include "isa/inst.h"
#include "sim/counters.h"

namespace bp5::sim {

struct MachineConfig;

/** Pipeline lifecycle of one retired instruction (cycle numbers are
 *  run-local; sinks that span run() calls rebase them, see
 *  obs::RebasingSink). */
struct InstRecord
{
    uint64_t seq = 0;  ///< dynamic instruction index within the run
    uint64_t pc = 0;
    isa::Inst inst;

    // Stage cycles: fetch -> dispatch (decode pipe) -> issue ->
    // writeback (completion) -> commit.
    uint64_t fetchCycle = 0;
    uint64_t dispatchCycle = 0;
    uint64_t issueCycle = 0;
    uint64_t writebackCycle = 0;
    uint64_t commitCycle = 0;

    StallReason stall = StallReason::None; ///< attributed delay cause
    /** CPI-stack component this instruction's commit gap is charged
     *  to (the cycle-accounting view of `stall`). */
    CpiComponent component = CpiComponent::Completing;

    bool isBranch = false;
    bool isCondBranch = false;
    bool taken = false;
    bool mispredicted = false; ///< direction- or target-mispredicted

    bool isLoad = false;
    bool isStore = false;
    uint64_t memAddr = 0;

    bool l1iMiss = false;
    bool l1dMiss = false;
    bool l2Miss = false;

    // Memory-system outcomes (all zero in classic MemSysParams mode).
    bool forwarded = false;     ///< load data forwarded from store queue
    bool disambigFlush = false; ///< this load squashed on an ordering
                                ///< violation (a Disambig FlushRecord
                                ///< precedes this record)
    /** Load/store queue occupancy at this op's dispatch (lsq mode,
     *  memory ops only; feeds the Perfetto occupancy counter track). */
    unsigned lsqLoadOcc = 0;
    unsigned lsqStoreOcc = 0;
};

/** One branch resolution (emitted for every branch instruction). */
struct BranchRecord
{
    uint64_t seq = 0;
    uint64_t pc = 0;
    uint64_t target = 0;       ///< architectural target when taken
    uint64_t resolveCycle = 0; ///< writeback cycle of the branch
    bool conditional = false;
    bool taken = false;
    bool predictedTaken = false;      ///< direction predictor's call
    bool directionMispredict = false;
    bool targetMispredict = false;
    bool btacPredicted = false; ///< BTAC steered fetch at this branch
    bool btacCorrect = false;
};

/** A front-end flush: fetch redirected after a branch resolved. */
struct FlushRecord
{
    enum class Cause
    {
        Direction, ///< direction misprediction
        Target,    ///< indirect-target misprediction
        BtacSteer, ///< BTAC steered fetch to the wrong place
        Disambig,  ///< load-ordering violation (speculative load squash)
    };

    uint64_t seq = 0;
    uint64_t pc = 0;           ///< the mispredicted branch (or the load)
    uint64_t resolveCycle = 0; ///< cycle the branch resolved
    uint64_t refetchCycle = 0; ///< cycle fetch resumes
    Cause cause = Cause::Direction;
};

/** One cache miss (instruction- or data-side). */
struct CacheMissRecord
{
    enum class Level
    {
        L1I,
        L1D,
        L2,
    };

    Level level = Level::L1D;
    uint64_t seq = 0;
    uint64_t pc = 0;
    uint64_t addr = 0;  ///< missing address (pc for L1I)
    uint64_t cycle = 0; ///< fetch cycle (L1I) or issue cycle (L1D/L2)
    bool isStore = false;
};

/**
 * Observer of one Machine's timed runs.  The default implementation
 * of every hook is a no-op, so a plain TraceSink instance is the null
 * sink.  Hooks fire only during timed runs (runFunctional() performs
 * no cycle accounting and emits no events).  Event order per
 * instruction: cache misses, then branch resolve, then flush, then the
 * InstRecord; onRunBegin/onRunEnd bracket each run() call.
 */
class TraceSink
{
  public:
    virtual ~TraceSink();

    virtual void onRunBegin(const MachineConfig &) {}
    /** End of one run; the argument is the run's complete counters. */
    virtual void onRunEnd(const Counters &) {}

    /** The Counters argument is the running total *including* this
     *  instruction. */
    virtual void onInstruction(const InstRecord &, const Counters &) {}
    virtual void onBranch(const BranchRecord &) {}
    virtual void onFlush(const FlushRecord &) {}
    virtual void onCacheMiss(const CacheMissRecord &) {}
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_TRACE_H
