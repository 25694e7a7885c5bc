/**
 * @file
 * PMU-style performance counters of the core model.  These mirror the
 * POWER5 hardware-counter quantities the paper reports: IPC, L1D miss
 * rate, direction- vs target-caused branch mispredictions, completion
 * stalls attributed to FXU, and the branch-mix statistics of Table II.
 */

#ifndef BIOPERF5_SIM_COUNTERS_H
#define BIOPERF5_SIM_COUNTERS_H

#include <array>
#include <cstdint>
#include <iterator>
#include <map>

#include "isa/opcodes.h"

namespace bp5::sim {

/** Why the commit stage failed to commit on a given cycle. */
enum class StallReason : unsigned
{
    None,     ///< committed at full width
    Frontend, ///< fetch-limited (taken-branch bubbles, I-cache)
    Branch,   ///< redirect after a branch misprediction
    FXU,      ///< waiting on a fixed-point result or free FXU
    LSU,      ///< waiting on a load/store (cache misses)
    Other,
    NUM_REASONS,
};

/** Stable machine-readable key ("frontend", "fxu", ...). */
constexpr const char *
stallReasonKey(StallReason r)
{
    switch (r) {
    case StallReason::None: return "none";
    case StallReason::Frontend: return "frontend";
    case StallReason::Branch: return "branch";
    case StallReason::FXU: return "fxu";
    case StallReason::LSU: return "lsu";
    case StallReason::Other: return "other";
    case StallReason::NUM_REASONS: break;
    }
    return "?";
}

/**
 * POWER5-style cycle-accounting component.  Every simulated cycle is
 * attributed to exactly one component (the CPI stack); the components
 * sum bit-exactly to `Counters::cycles` per run and per sampler
 * window.  Attribution priority when causes overlap is documented in
 * DESIGN.md section 4.10.
 */
enum class CpiComponent : unsigned
{
    Completing,    ///< a group completed this cycle
    Frontend,      ///< I-side: fetch-limited (taken bubbles, L1I, width)
    BranchFlush,   ///< pipeline refill after a branch misprediction
    DisambigFlush, ///< refill after a load-ordering violation squash
    LsuFwd,        ///< load waiting on store-queue forwarded data
    LsuL1,         ///< data-side: L1-resident load/store dependences
    LsuL2,         ///< L1D miss served from L2
    LsuMem,        ///< L2 miss served from memory
    Fxu,           ///< fixed-point result latency or FXU saturation
    LsqFull,       ///< load/store queue full at dispatch
    RobFull,       ///< completion table (ROB) full at dispatch
    Other,         ///< BRU/CRU serialization and unclassified delay
    NUM_COMPONENTS,
};

constexpr size_t kNumCpiComponents = size_t(CpiComponent::NUM_COMPONENTS);

/** Stable machine-readable key ("completing", "branch_flush", ...). */
constexpr const char *
cpiComponentKey(CpiComponent c)
{
    switch (c) {
    case CpiComponent::Completing: return "completing";
    case CpiComponent::Frontend: return "frontend";
    case CpiComponent::BranchFlush: return "branch_flush";
    case CpiComponent::DisambigFlush: return "disambig_flush";
    case CpiComponent::LsuFwd: return "lsu_fwd";
    case CpiComponent::LsuL1: return "lsu_l1";
    case CpiComponent::LsuL2: return "lsu_l2";
    case CpiComponent::LsuMem: return "lsu_mem";
    case CpiComponent::Fxu: return "fxu";
    case CpiComponent::LsqFull: return "lsq_full";
    case CpiComponent::RobFull: return "rob_full";
    case CpiComponent::Other: return "other";
    case CpiComponent::NUM_COMPONENTS: break;
    }
    return "?";
}

/** Human-readable label for reports ("branch flush", "L2 data", ...). */
constexpr const char *
cpiComponentLabel(CpiComponent c)
{
    switch (c) {
    case CpiComponent::Completing: return "completing";
    case CpiComponent::Frontend: return "frontend empty";
    case CpiComponent::BranchFlush: return "branch flush";
    case CpiComponent::DisambigFlush: return "disambig flush";
    case CpiComponent::LsuFwd: return "forwarded data";
    case CpiComponent::LsuL1: return "L1D data";
    case CpiComponent::LsuL2: return "L2 data";
    case CpiComponent::LsuMem: return "memory data";
    case CpiComponent::Fxu: return "FXU";
    case CpiComponent::LsqFull: return "LSQ full";
    case CpiComponent::RobFull: return "ROB full";
    case CpiComponent::Other: return "other";
    case CpiComponent::NUM_COMPONENTS: break;
    }
    return "?";
}

/**
 * Aggregate counters for one simulation run or interval.  Every scalar
 * field has one row in kCounterFields below; code that must see every
 * field walks that table, never a hand-written list.
 */
struct Counters
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;

    // Branch statistics.
    uint64_t branches = 0;          ///< all branch instructions
    uint64_t condBranches = 0;
    uint64_t takenBranches = 0;
    uint64_t mispredDirection = 0;  ///< direction mispredicts
    uint64_t mispredTarget = 0;     ///< target mispredicts (indirect)
    uint64_t takenBubbles = 0;      ///< 2-cycle taken-branch penalties paid

    // BTAC.
    uint64_t btacPredictions = 0;
    uint64_t btacCorrect = 0;
    uint64_t btacMispredicts = 0;

    // Memory.
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l1iAccesses = 0;
    uint64_t l1iMisses = 0;
    uint64_t l2Misses = 0;

    // Memory system (zero in classic MemSysParams mode).
    uint64_t storeForwards = 0;   ///< loads served from the store queue
    uint64_t disambigFlushes = 0; ///< load-ordering violation squashes
    uint64_t lsqFullLoads = 0;    ///< loads delayed by a full load queue
    uint64_t lsqFullStores = 0;   ///< stores delayed by a full store queue
    uint64_t prefetchIssued = 0;  ///< prefetch fills issued (all levels)
    uint64_t prefetchHits = 0;    ///< demand hits on prefetched L1D lines

    // Completion-stall cycles by attributed reason.
    std::array<uint64_t, size_t(StallReason::NUM_REASONS)> stallCycles{};

    // CPI stack: every cycle attributed to exactly one component.
    // Invariant (tested): sum over components == `cycles`, bit-exact,
    // per run and per PmuSampler window, sampled or not.
    std::array<uint64_t, kNumCpiComponents> cpi{};

    // Dynamic instruction mix.
    std::array<uint64_t, size_t(isa::Op::NUM_OPS)> opCount{};

    // ---- derived metrics -------------------------------------------

    double ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }

    double
    branchFraction() const
    {
        return instructions ? double(branches) / double(instructions) : 0.0;
    }

    /** Mispredictions (any cause) per conditional branch. */
    double
    branchMispredictRate() const
    {
        uint64_t m = mispredDirection + mispredTarget;
        return condBranches ? double(m) / double(condBranches) : 0.0;
    }

    /** Share of all mispredictions caused by wrong direction (Table I). */
    double
    mispredictDirectionShare() const
    {
        uint64_t m = mispredDirection + mispredTarget;
        return m ? double(mispredDirection) / double(m) : 0.0;
    }

    double
    takenBranchFraction() const
    {
        return branches ? double(takenBranches) / double(branches) : 0.0;
    }

    double
    l1dMissRate() const
    {
        return l1dAccesses ? double(l1dMisses) / double(l1dAccesses) : 0.0;
    }

    /** Stall share of total cycles for @p r (Table I's FXU column). */
    double
    stallShare(StallReason r) const
    {
        return cycles ? double(stallCycles[size_t(r)]) / double(cycles)
                      : 0.0;
    }

    /** Sum of all CPI-stack components (== cycles by invariant). */
    uint64_t
    cpiSum() const
    {
        uint64_t s = 0;
        for (uint64_t v : cpi)
            s += v;
        return s;
    }

    /** Share of total cycles attributed to CPI component @p c. */
    double
    cpiShare(CpiComponent c) const
    {
        return cycles ? double(cpi[size_t(c)]) / double(cycles) : 0.0;
    }

    /** Data-side stall share (forwarded + L1D + L2 + memory). */
    double
    cpiDataShare() const
    {
        uint64_t d = cpi[size_t(CpiComponent::LsuFwd)] +
                     cpi[size_t(CpiComponent::LsuL1)] +
                     cpi[size_t(CpiComponent::LsuL2)] +
                     cpi[size_t(CpiComponent::LsuMem)];
        return cycles ? double(d) / double(cycles) : 0.0;
    }

    /** Flush share: branch mispredict + ordering-violation refills. */
    double
    cpiFlushShare() const
    {
        uint64_t f = cpi[size_t(CpiComponent::BranchFlush)] +
                     cpi[size_t(CpiComponent::DisambigFlush)];
        return cycles ? double(f) / double(cycles) : 0.0;
    }

    /** Fraction of isel+max instructions (paper section VI-A). */
    double
    predicatedFraction() const
    {
        uint64_t n = opCount[size_t(isa::Op::ISEL)] +
                     opCount[size_t(isa::Op::MAXD)] +
                     opCount[size_t(isa::Op::MIND)];
        return instructions ? double(n) / double(instructions) : 0.0;
    }

    /** Fraction of compare instructions. */
    double
    compareFraction() const
    {
        uint64_t n = opCount[size_t(isa::Op::CMP)] +
                     opCount[size_t(isa::Op::CMPL)] +
                     opCount[size_t(isa::Op::CMPI)] +
                     opCount[size_t(isa::Op::CMPLI)];
        return instructions ? double(n) / double(instructions) : 0.0;
    }

    /** Accumulate @p other into this (for workload-level aggregation). */
    void add(const Counters &other);

    /** Field-wise this -= @p other (this must dominate: counters grow). */
    void subtract(const Counters &other);

    /** Field-wise equality (the tracing-invariance tests rely on it). */
    friend bool operator==(const Counters &, const Counters &) = default;
};

/**
 * How Machine::runSampled forms a counter's total from its detailed
 * windows and its fast-forward phases (DESIGN.md section 4.7).
 */
enum class SampledRule : unsigned char
{
    Exact,         ///< fast-forward counts it too; merged unscaled
    Extrapolated,  ///< windows only; scaled by total/detailed instructions
    Reconstructed, ///< recomputed from the exact counts at the end
};

/** One scalar field of Counters. */
struct CounterField
{
    const char *key;            ///< snake_case key of the CSV and manifests
    uint64_t Counters::*member;
    SampledRule sampled;
};

/**
 * The counter schema: one row per scalar Counters field, in declaration
 * order.  Of the arrays, stallCycles and cpi are extrapolated and
 * opCount is exact.  add, subtract, the sampled extrapolation, the PMU
 * CSV and the tests' field-by-field comparison all walk this table.
 */
inline constexpr CounterField kCounterFields[] = {
    {"cycles", &Counters::cycles, SampledRule::Extrapolated},
    {"instructions", &Counters::instructions, SampledRule::Exact},
    {"branches", &Counters::branches, SampledRule::Exact},
    {"cond_branches", &Counters::condBranches, SampledRule::Exact},
    {"taken_branches", &Counters::takenBranches, SampledRule::Exact},
    {"mispred_direction", &Counters::mispredDirection,
     SampledRule::Extrapolated},
    {"mispred_target", &Counters::mispredTarget, SampledRule::Extrapolated},
    {"taken_bubbles", &Counters::takenBubbles, SampledRule::Extrapolated},
    {"btac_predictions", &Counters::btacPredictions,
     SampledRule::Extrapolated},
    {"btac_correct", &Counters::btacCorrect, SampledRule::Extrapolated},
    {"btac_mispredicts", &Counters::btacMispredicts,
     SampledRule::Extrapolated},
    {"loads", &Counters::loads, SampledRule::Exact},
    {"stores", &Counters::stores, SampledRule::Exact},
    {"l1d_accesses", &Counters::l1dAccesses, SampledRule::Reconstructed},
    {"l1d_misses", &Counters::l1dMisses, SampledRule::Extrapolated},
    {"l1i_accesses", &Counters::l1iAccesses, SampledRule::Reconstructed},
    {"l1i_misses", &Counters::l1iMisses, SampledRule::Extrapolated},
    {"l2_misses", &Counters::l2Misses, SampledRule::Extrapolated},
    {"store_forwards", &Counters::storeForwards, SampledRule::Extrapolated},
    {"disambig_flushes", &Counters::disambigFlushes,
     SampledRule::Extrapolated},
    {"lsq_full_loads", &Counters::lsqFullLoads, SampledRule::Extrapolated},
    {"lsq_full_stores", &Counters::lsqFullStores, SampledRule::Extrapolated},
    {"prefetch_issued", &Counters::prefetchIssued, SampledRule::Extrapolated},
    {"prefetch_hits", &Counters::prefetchHits, SampledRule::Extrapolated},
};

static_assert(sizeof(Counters) ==
                  std::size(kCounterFields) * sizeof(uint64_t) +
                      sizeof(Counters::stallCycles) +
                      sizeof(Counters::cpi) + sizeof(Counters::opCount),
              "every scalar Counters field needs a kCounterFields row");

/**
 * Per-branch-site PMU counters (one record per static branch
 * instruction, keyed by pc), collected by obs::SiteProfileSink; the
 * analysis layer joins these with its static branch classification.
 */
struct BranchSiteStats
{
    uint64_t executions = 0;
    uint64_t taken = 0;
    uint64_t mispredDirection = 0;
    uint64_t mispredTarget = 0;

    uint64_t mispredicts() const { return mispredDirection + mispredTarget; }

    void
    add(const BranchSiteStats &o)
    {
        executions += o.executions;
        taken += o.taken;
        mispredDirection += o.mispredDirection;
        mispredTarget += o.mispredTarget;
    }
};

/** Ordered pc -> site stats (ordered so reports are deterministic). */
using BranchProfile = std::map<uint64_t, BranchSiteStats>;

/**
 * Per-PC cycle attribution: non-completing cycles charged to the
 * instruction address blamed for them (the flat stall profile),
 * collected by obs::SiteProfileSink.
 */
struct StallSiteStats
{
    std::array<uint64_t, kNumCpiComponents> cycles{};

    uint64_t
    total() const
    {
        uint64_t s = 0;
        for (uint64_t v : cycles)
            s += v;
        return s;
    }

    void
    add(const StallSiteStats &o)
    {
        for (size_t i = 0; i < cycles.size(); ++i)
            cycles[i] += o.cycles[i];
    }
};

/** Ordered pc -> attributed stall cycles (deterministic reports). */
using StallProfile = std::map<uint64_t, StallSiteStats>;

/** One point of the Fig-2 style timeline. */
struct IntervalSample
{
    uint64_t cycle = 0;    ///< end cycle of the interval
    double ipc = 0.0;
    double branchMispredictRate = 0.0;
    double l1dMissRate = 0.0;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_COUNTERS_H
