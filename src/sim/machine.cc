#include "sim/machine.h"

#include <algorithm>
#include <cstring>

#include "support/logging.h"

namespace bp5::sim {

Machine::Machine(const MachineConfig &config)
    : config_(config), exec_(state_, mem_),
      l2_(config.l2, nullptr, config.memLatency),
      l1i_(config.l1i, &l2_, config.memLatency),
      l1d_(config.l1d, &l2_, config.memLatency),
      memsys_(config.memsys, &l1d_),
      predictor_(config.predictor, config.predictorEntries,
                 config.predictorHistoryBits),
      btac_(config.btac), robCommitCycle_(config.robSize, 0)
{
    const unsigned counts[] = {config.numFXU, config.numLSU, config.numBRU,
                               config.numCRU};
    const isa::Unit units[] = {isa::Unit::FXU, isa::Unit::LSU,
                               isa::Unit::BRU, isa::Unit::CRU};
    for (size_t i = 0; i < 4; ++i) {
        BP5_ASSERT(counts[i] >= 1 && counts[i] <= kMaxUnitsPerClass,
                   "execution units per class must be in 1..%u",
                   kMaxUnitsPerClass);
        unitCount_[size_t(units[i])] = static_cast<uint8_t>(counts[i]);
    }
    BP5_ASSERT(config.robSize > 0, "the ROB needs at least one entry");
}

Machine::~Machine() = default;

void
Machine::loadProgram(const masm::Program &prog)
{
    mem_.writeBlock(prog.base, prog.image.data(), prog.image.size());
    exec_.setImage(prog.base, prog.image.size());
}

void
Machine::reset()
{
    state_.reset();
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
    memsys_.reset();
    predictor_.reset();
    btac_.reset();
    exec_.clearConsole();
    // Decoded micro-ops survive, but each is re-checked against memory
    // at its next execution, so a program that stored over its own code
    // runs the new words exactly as a fresh machine would.
    exec_.invalidateDecodeCache();
    sink_ = nullptr;
    sampling_ = SamplingParams();
}

void
Machine::beginRun()
{
    timing_ = TimingState();
    memsys_.beginRun();
}

namespace {

/** What the schedule found about one instruction's delay. */
struct DelayFacts
{
    isa::Unit unit = isa::Unit::NONE;
    /// Producer of the source operand that arrived last (NONE when no
    /// operand held the instruction past dispatch).
    isa::Unit criticalProducer = isa::Unit::NONE;
    bool afterRedirect = false; ///< fetched in a flush's shadow
    bool afterDisambig = false; ///< ... and that flush was a squash
    /// Held after dispatch by operands, a busy unit, an L1D miss or an
    /// older store.
    bool lateInBackend = false;
    bool dcacheMiss = false;
    bool l2Miss = false;
    bool forwarded = false;
    bool disambig = false; ///< squashed on a load-ordering violation
    bool lsqLimited = false;
    bool robLimited = false;
};

/** One instruction's delay cause in both accountings. */
struct Delay
{
    StallReason reason;   ///< POWER5 PM_CMPLU_STALL_* analogue
    CpiComponent component; ///< CPI-stack component (DESIGN.md §4.10)
};

/**
 * Classify an instruction's delay.  The CPI component wins under the
 * documented priority order (squash, flush shadow, L1D miss, back-end
 * wait, queue full, ROB full, front end); the stall reason is the
 * coarser completion-stall view of the same decision.
 */
inline Delay
classifyDelay(const DelayFacts &f)
{
    if (f.disambig) {
        return {f.afterRedirect ? StallReason::Branch : StallReason::LSU,
                CpiComponent::DisambigFlush};
    }
    if (f.afterRedirect) {
        return {StallReason::Branch, f.afterDisambig
                                         ? CpiComponent::DisambigFlush
                                         : CpiComponent::BranchFlush};
    }
    if (f.dcacheMiss) {
        return {StallReason::LSU,
                f.l2Miss ? CpiComponent::LsuMem : CpiComponent::LsuL2};
    }
    if (f.lateInBackend) {
        // A branch or CR op waits on its critical producer's unit.
        isa::Unit u = f.unit;
        if (u != isa::Unit::FXU && u != isa::Unit::LSU &&
            f.criticalProducer != isa::Unit::NONE) {
            u = f.criticalProducer;
        }
        Delay d{StallReason::Other, CpiComponent::Other};
        if (u == isa::Unit::FXU)
            d = {StallReason::FXU, CpiComponent::Fxu};
        else if (u == isa::Unit::LSU)
            d = {StallReason::LSU, CpiComponent::LsuL1};
        if (f.forwarded)
            d.component = CpiComponent::LsuFwd;
        return d;
    }
    if (f.lsqLimited) {
        return {f.robLimited ? StallReason::Other : StallReason::Frontend,
                CpiComponent::LsqFull};
    }
    if (f.robLimited)
        return {StallReason::Other, CpiComponent::RobFull};
    return {StallReason::Frontend, CpiComponent::Frontend};
}

} // namespace

template <bool Traced, bool BtacOn, bool Classic>
[[gnu::always_inline]] inline void
Machine::scheduleInstruction(const MicroOp &mo, uint64_t pc,
                             const FastCtx &x, Counters &c)
{
    TimingState &ts = timing_;
    // The FastCtx outlives the op: its outcome fields are current only
    // for the ops that set them.
    const uint64_t memAddr = mo.isLoad || mo.isStore ? x.memAddr : 0;
    const bool taken = mo.isBranch && x.taken;
    const uint64_t target = taken ? x.target : 0;
    const unsigned frontDepth = config_.frontendDepth;
    const uint64_t seqno = ts.seq; ///< dynamic index of this instruction
    DelayFacts f;
    f.unit = mo.unit;

    // ------------------------------------------------------------ fetch
    uint64_t fc = ts.fetchAvail;
    if (fc == ts.fetchCycleCursor &&
        ts.fetchedThisCycle >= config_.fetchWidth) {
        ++fc;
    }
    if (fc != ts.fetchCycleCursor) {
        ts.fetchCycleCursor = fc;
        ts.fetchedThisCycle = 0;
    }
    ++ts.fetchedThisCycle;
    ts.fetchAvail = fc;

    // Instruction cache (tag-only; code is touched once per line).
    ++c.l1iAccesses;
    const Cache::Outcome io = l1i_.access(pc, false);
    if (io.miss) {
        ++c.l1iMisses;
        fc += io.latency;
        ts.fetchAvail = fc;
        ts.fetchCycleCursor = fc;
        ts.fetchedThisCycle = 1;
        if constexpr (Traced) {
            CacheMissRecord mr;
            mr.level = CacheMissRecord::Level::L1I;
            mr.seq = seqno;
            mr.pc = pc;
            mr.addr = pc;
            mr.cycle = fc;
            sink_->onCacheMiss(mr);
        }
    }

    f.afterRedirect = ts.redirectShadow > 0;
    f.afterDisambig = f.afterRedirect && ts.redirectDisambig;
    if (ts.redirectShadow > 0)
        --ts.redirectShadow;

    // --------------------------------------------------------- dispatch
    uint64_t dc = fc + frontDepth;
    if (dc < ts.dispatchCycleCursor)
        dc = ts.dispatchCycleCursor;
    if (dc == ts.dispatchCycleCursor &&
        ts.dispatchedThisCycle >= config_.dispatchWidth) {
        ++dc;
    }
    // ROB space: the entry robSize back must have committed.
    uint64_t rob_free = robCommitCycle_[ts.robSlot];
    if (ts.seq >= config_.robSize && dc <= rob_free) {
        dc = rob_free + 1;
        f.robLimited = true;
    }
    // Load/store queue space (lsq mode; a no-op in classic mode).
    if (mo.isLoad || mo.isStore)
        dc = memsys_.reserve<Classic>(mo.isLoad, dc, &f.lsqLimited);
    if (f.lsqLimited) {
        if (mo.isLoad)
            ++c.lsqFullLoads;
        else
            ++c.lsqFullStores;
    }
    if (dc != ts.dispatchCycleCursor) {
        ts.dispatchCycleCursor = dc;
        ts.dispatchedThisCycle = 0;
    }
    ++ts.dispatchedThisCycle;

    // ---------------------------------------------------------- operands
    uint64_t rc_cycle = dc;
    for (unsigned i = 0; i < mo.nsrc; ++i) {
        uint64_t rdy = ts.regReady[mo.src[i]];
        if (rdy > rc_cycle) {
            rc_cycle = rdy;
            f.criticalProducer = ts.regProducer[mo.src[i]];
        }
    }

    // Store-to-load ordering through the memory system: the classic
    // store table makes the load wait for the store's completion; the
    // LSQ may instead forward the data or speculate (and violate).
    bool load_after_store = false;
    uint64_t conflict_complete = 0;
    if (mo.isLoad) {
        LoadStoreQueue::Order ord =
            memsys_.orderLoad<Classic>(pc, memAddr, rc_cycle);
        if (ord.ready > rc_cycle) {
            rc_cycle = ord.ready;
            load_after_store = true;
        }
        f.forwarded = ord.forwarded;
        f.disambig = ord.violation;
        conflict_complete = ord.conflictComplete;
    }

    // ------------------------------------------------------------- issue
    auto &frees = ts.unitFree[size_t(mo.unit)];
    const unsigned nunits = unitCount_[size_t(mo.unit)];
    size_t best = 0;
    for (size_t i = 1; i < nunits; ++i) {
        if (frees[i] < frees[best])
            best = i;
    }
    uint64_t ic = std::max(rc_cycle, frees[best]);
    bool unit_contended = frees[best] > rc_cycle;
    frees[best] = ic + mo.occupancy;

    // ---------------------------------------------------------- complete
    uint64_t latency = mo.latency;
    if (f.forwarded) {
        // Load served from the store queue: no cache access at all,
        // just the forward latency once the data is ready.
        latency = memsys_.params().lsq.forwardLatency;
        ++c.storeForwards;
    } else if (mo.isLoad || mo.isStore) {
        ++c.l1dAccesses;
        MemorySystem::Access ar =
            memsys_.access(pc, memAddr, mo.isStore, ic);
        f.dcacheMiss = ar.l1dMiss;
        f.l2Miss = ar.l2Miss;
        c.l1dMisses += ar.l1dMiss;
        c.l2Misses += ar.l2Miss;
        c.prefetchHits += ar.prefetchedHit;
        c.prefetchIssued += ar.prefetchIssued;
        if constexpr (Traced) {
            // An L2 miss is the L1D miss's fill missing below it.
            if (f.dcacheMiss) {
                CacheMissRecord mr;
                mr.seq = seqno;
                mr.pc = pc;
                mr.addr = memAddr;
                mr.cycle = ic;
                mr.isStore = mo.isStore;
                mr.level = CacheMissRecord::Level::L1D;
                sink_->onCacheMiss(mr);
                if (f.l2Miss) {
                    mr.level = CacheMissRecord::Level::L2;
                    sink_->onCacheMiss(mr);
                }
            }
        }
        if (mo.isLoad) {
            latency = 1 + ar.latency; // L1 hit => 1 + hitLatency = 2
        } else {
            latency = 1; // store completes; writeback is buffered
        }
    }
    uint64_t cc = ic + latency;
    f.lateInBackend = rc_cycle > dc || unit_contended || f.dcacheMiss ||
                      load_after_store;

    if (f.disambig) {
        // The load speculated past an older store to the same granule
        // and is squashed when the store's data arrives: it re-executes
        // as a forward off the store queue, and everything younger is
        // refetched (charged below as a DisambigFlush).
        uint64_t redo =
            conflict_complete + memsys_.params().lsq.forwardLatency;
        if (redo > cc)
            cc = redo;
        ++c.disambigFlushes;
        ts.fetchAvail = cc + 1 + memsys_.params().lsq.disambigPenalty;
        ts.redirectShadow = config_.commitWidth;
        ts.redirectDisambig = true;
        if constexpr (Traced) {
            FlushRecord fr;
            fr.seq = seqno;
            fr.pc = pc;
            fr.resolveCycle = cc;
            fr.refetchCycle = ts.fetchAvail;
            fr.cause = FlushRecord::Cause::Disambig;
            sink_->onFlush(fr);
        }
    }

    if (mo.isStore)
        memsys_.storeComplete<Classic>(memAddr, cc);

    // Register results become available at completion.
    for (unsigned i = 0; i < mo.ndst; ++i) {
        ts.regReady[mo.dst[i]] = cc;
        ts.regProducer[mo.dst[i]] = mo.unit;
    }

    // ---------------------------------------------------------- branches
    bool direction_mispredict = false;
    bool target_mispredict = false;
    if (mo.isBranch) {
        Btac::Lookup bl;
        if constexpr (BtacOn)
            bl = btac_.lookup(pc);

        bool pred = false;
        if (mo.isCondBranch) {
            pred = predictor_.predictUpdate(pc, taken);
            direction_mispredict = pred != taken;
        }

        // Indirect branches: bclr is covered by a (modelled-perfect)
        // link stack; bcctr needs the BTAC for its target.
        const bool btac_right = bl.predict && taken && bl.nia == target;
        if (mo.inst.op == isa::Op::BCCTR && taken && !btac_right)
            target_mispredict = true;

        if constexpr (BtacOn) {
            btac_.update(pc, taken, target, bl);
            if (bl.predict) {
                ++c.btacPredictions;
                if (btac_right)
                    ++c.btacCorrect;
                else
                    ++c.btacMispredicts;
            }
        }

        bool redirect = false;
        if (direction_mispredict || target_mispredict) {
            if (direction_mispredict)
                ++c.mispredDirection;
            else
                ++c.mispredTarget;
            // Flush: refetch after the branch resolves.
            ts.fetchAvail = cc + 1 + config_.mispredictPenalty;
            redirect = true;
        } else if (bl.predict && !btac_right) {
            // BTAC steered fetch to the wrong place; same redirect cost.
            ts.fetchAvail = cc + 1 + config_.mispredictPenalty;
            redirect = true;
        } else if (taken) {
            if (btac_right) {
                // Target known at fetch: only the fetch-group break.
                ts.fetchAvail = fc + 1;
            } else {
                ts.fetchAvail = fc + 1 + config_.takenBranchPenalty;
                ++c.takenBubbles;
            }
        }
        if (redirect) {
            ts.redirectShadow = config_.commitWidth;
            ts.redirectDisambig = false;
        }

        if constexpr (Traced) {
            BranchRecord br;
            br.seq = seqno;
            br.pc = pc;
            br.target = target;
            br.resolveCycle = cc;
            br.conditional = mo.isCondBranch;
            br.taken = taken;
            br.predictedTaken = pred;
            br.directionMispredict = direction_mispredict;
            br.targetMispredict = target_mispredict;
            br.btacPredicted = bl.predict;
            br.btacCorrect = btac_right;
            sink_->onBranch(br);
            if (redirect) {
                FlushRecord fr;
                fr.seq = seqno;
                fr.pc = pc;
                fr.resolveCycle = cc;
                fr.refetchCycle = ts.fetchAvail;
                fr.cause = direction_mispredict
                               ? FlushRecord::Cause::Direction
                           : target_mispredict
                               ? FlushRecord::Cause::Target
                               : FlushRecord::Cause::BtacSteer;
                sink_->onFlush(fr);
            }
        }
    }

    // ------------------------------------------------------------ commit
    uint64_t commit = std::max(cc + 1, ts.lastCommitCycle);
    if (commit == ts.lastCommitCycle &&
        ts.committedThisCycle >= config_.commitWidth) {
        ++commit;
    }
    if (commit != ts.lastCommitCycle) {
        ts.lastCommitCycle = commit;
        ts.committedThisCycle = 0;
    }
    ++ts.committedThisCycle;

    // Attribute every cycle up to this commit to the instruction's CPI
    // component.  Commit cycles are monotonic, so charging each newly
    // closed gap keeps sum(cpi) == cycles bit-exactly at every
    // instruction boundary (and hence per PmuSampler window).
    const Delay delay = classifyDelay(f);
    if (commit > ts.lastAccounted) {
        c.cpi[size_t(delay.component)] += commit - ts.lastAccounted - 1;
        ++c.cpi[size_t(CpiComponent::Completing)];
        ts.lastAccounted = commit;
    }

    // Group accounting: groups end at width or at a taken branch
    // (POWER5 group formation); the gap between group completions is
    // charged to the slowest member's reason.
    if (ts.groupSize == 0 || cc >= ts.groupMaxCc) {
        ts.groupMaxCc = cc;
        ts.groupReason = delay.reason;
    }
    ++ts.groupSize;
    bool group_ends = ts.groupSize >= config_.commitWidth || taken;
    if (group_ends) {
        if (commit > ts.lastGroupCommit + 1 && ts.seq > 0) {
            c.stallCycles[size_t(ts.groupReason)] +=
                commit - ts.lastGroupCommit - 1;
        }
        ts.lastGroupCommit = commit;
        ts.groupSize = 0;
    }

    robCommitCycle_[ts.robSlot] = commit;
    if (++ts.robSlot == robCommitCycle_.size())
        ts.robSlot = 0;
    if (mo.isLoad || mo.isStore)
        memsys_.commit<Classic>(mo.isLoad, commit);
    ++ts.seq;

    // Architectural counters were bumped by the executor loop, the
    // handler and the run hook; only the cycle count is the timing
    // model's.
    c.cycles = commit;

    if constexpr (Traced) {
        InstRecord rec;
        rec.seq = seqno;
        rec.pc = pc;
        rec.inst = mo.inst;
        rec.fetchCycle = fc;
        rec.dispatchCycle = dc;
        rec.issueCycle = ic;
        rec.writebackCycle = cc;
        rec.commitCycle = commit;
        rec.stall = delay.reason;
        rec.component = delay.component;
        rec.isBranch = mo.isBranch;
        rec.isCondBranch = mo.isCondBranch;
        rec.taken = taken;
        rec.mispredicted = direction_mispredict || target_mispredict;
        rec.isLoad = mo.isLoad;
        rec.isStore = mo.isStore;
        rec.memAddr = memAddr;
        rec.l1iMiss = io.miss;
        rec.l1dMiss = f.dcacheMiss;
        rec.l2Miss = f.l2Miss;
        rec.forwarded = f.forwarded;
        rec.disambigFlush = f.disambig;
        if (!Classic && (mo.isLoad || mo.isStore)) {
            rec.lsqLoadOcc = memsys_.occupancy(true, dc);
            rec.lsqStoreOcc = memsys_.occupancy(false, dc);
        }
        sink_->onInstruction(rec, c);
    }
}

/**
 * The executor loop with the timing model as its hook: count each
 * retired instruction (sinks read Counters in onInstruction) and
 * schedule it.
 */
template <bool Traced, bool BtacOn, bool Classic>
Executor::FastResult
Machine::runShape(uint64_t max, Counters &c)
{
    return exec_.runHooked(
        max, c,
        [this, &c](const MicroOp &mo, uint64_t pc, const FastCtx &x) {
            ++c.instructions;
            scheduleInstruction<Traced, BtacOn, Classic>(mo, pc, x, c);
        });
}

/**
 * Full-detail timing through the loop built for this machine's shape,
 * chosen once per call (per run, or per sampled window).  Returns the
 * number executed; a halt lands in @p res.
 */
uint64_t
Machine::runTimed(uint64_t max, RunResult &res)
{
    using Loop = Executor::FastResult (Machine::*)(uint64_t, Counters &);
    // Indexed by traced * 4 + btac * 2 + classic.
    static constexpr Loop kLoops[8] = {
        &Machine::runShape<false, false, false>,
        &Machine::runShape<false, false, true>,
        &Machine::runShape<false, true, false>,
        &Machine::runShape<false, true, true>,
        &Machine::runShape<true, false, false>,
        &Machine::runShape<true, false, true>,
        &Machine::runShape<true, true, false>,
        &Machine::runShape<true, true, true>,
    };
    const size_t shape = (sink_ ? 4 : 0) + (config_.btacEnabled ? 2 : 0) +
                         (memsys_.classic() ? 1 : 0);
    Executor::FastResult fr = (this->*kLoops[shape])(max, res.counters);
    if (fr.halted) {
        res.halted = true;
        res.exitCode = fr.exitCode;
    }
    return fr.executed;
}

RunResult
Machine::run(uint64_t max_instructions)
{
    if (sampling_.enabled())
        return runSampled(max_instructions);

    RunResult res;
    beginRun();
    Counters &c = res.counters;
    if (sink_)
        sink_->onRunBegin(config_);

    runTimed(max_instructions, res);
    if (sink_)
        sink_->onRunEnd(c);
    res.console = exec_.console();
    return res;
}

/**
 * Forced inline into the warming loop: with g++ 12 an out-of-line call
 * per branch and memory op measured 7-10% slower on sampled runs
 * (tools/ab_same_process.sh), and splitting the branch training out of
 * line measured no better than inlining it all.
 */
template <bool BtacOn>
[[gnu::always_inline]] inline void
Machine::trainOn(const MicroOp &mo, uint64_t pc, const FastCtx &x)
{
    if (mo.isLoad || mo.isStore) {
        l1d_.access(x.memAddr, mo.isStore);
        return;
    }
    if (mo.isCondBranch)
        predictor_.update(pc, x.taken);
    if constexpr (BtacOn) {
        const Btac::Lookup bl = btac_.lookup(pc);
        btac_.update(pc, x.taken, x.target, bl);
    }
}

template <bool BtacOn>
Executor::FastResult
Machine::runWarm(uint64_t max, Counters &c)
{
    Executor::FastResult res = exec_.runHooked(
        max, c, [this](const MicroOp &mo, uint64_t pc, const FastCtx &x) {
            if (mo.isBranch | mo.isLoad | mo.isStore)
                trainOn<BtacOn>(mo, pc, x);
        });
    c.instructions += res.executed;
    return res;
}

namespace {

/** Round-to-nearest extrapolation of one event counter. */
uint64_t
scaleCounter(uint64_t v, double r)
{
    return static_cast<uint64_t>(static_cast<double>(v) * r + 0.5);
}

} // namespace

/**
 * SMARTS-style sampled timing: detailed measurement windows separated
 * by functional fast-forward phases through the compiled engine.
 *
 * Each counter's rule is its SampledRule row in kCounterFields:
 * - Exact counters (instructions, branch and memory op counts, and the
 *   opCount array) are counted by the fast-forward phases too, which
 *   execute the same committed stream; their counts merge in unscaled.
 * - Extrapolated counters (cycles, mispredicts, taken bubbles, BTAC
 *   stats, cache misses, memory-system events, and the stallCycles and
 *   cpi arrays) are measured inside the windows only and scaled by
 *   total/measured instructions.
 * - Reconstructed counters (l1iAccesses, l1dAccesses) are recomputed
 *   exactly: one per instruction and one per memory op respectively,
 *   as in the detailed model.
 * - With functionalWarming the direction predictor, BTAC and L1D stay
 *   warm across fast-forward: runWarm trains them by the detailed
 *   model's own update rules.  The L1I is not warmed — the kernels'
 *   code footprint is a few lines and refills within a window.
 * - The cycle axis stays continuous across windows (fast-forward adds
 *   no cycles) and trace-sink events fire only inside windows, so an
 *   attached PmuSampler sees a compressed but monotonic timeline.
 */
RunResult
Machine::runSampled(uint64_t max_instructions)
{
    RunResult res;
    res.sampled = true;
    beginRun();
    Counters &c = res.counters;
    Counters ff; ///< architectural counts from fast-forward phases
    if (sink_)
        sink_->onRunBegin(config_);

    uint64_t remaining = max_instructions;
    while (remaining > 0) {
        uint64_t window =
            std::min(sampling_.detailInstructions, remaining);
        remaining -= runTimed(window, res);
        ++res.sampling.windows;
        if (res.halted || remaining == 0)
            break;

        uint64_t skip = std::min(sampling_.skipInstructions, remaining);
        Executor::FastResult fr =
            !sampling_.functionalWarming ? exec_.runFast(skip, ff)
            : config_.btacEnabled        ? runWarm<true>(skip, ff)
                                         : runWarm<false>(skip, ff);
        remaining -= fr.executed;
        if (fr.halted) {
            res.halted = true;
            res.exitCode = fr.exitCode;
            break;
        }
    }

    res.sampling.detailedInstructions = c.instructions;
    res.sampling.detailedCycles = c.cycles;
    res.sampling.fastForwardedInstructions = ff.instructions;

    // Fast-forward counts only the Exact fields, so one add merges
    // them and leaves the window-measured event counters as they are.
    for (const CounterField &f : kCounterFields)
        BP5_ASSERT(f.sampled == SampledRule::Exact || ff.*f.member == 0,
                   "fast-forward counted %s", f.key);
    c.add(ff);

    // Event extrapolation from the measured windows.
    if (res.sampling.detailedInstructions > 0 &&
        ff.instructions > 0) {
        double r = static_cast<double>(c.instructions) /
                   static_cast<double>(res.sampling.detailedInstructions);
        for (const CounterField &f : kCounterFields)
            if (f.sampled == SampledRule::Extrapolated)
                c.*f.member = scaleCounter(c.*f.member, r);
        for (uint64_t &v : c.stallCycles)
            v = scaleCounter(v, r);
        for (uint64_t &v : c.cpi)
            v = scaleCounter(v, r);
        // Per-component rounding breaks the bit-exact sum-to-cycles
        // invariant by at most a handful of cycles; repair the residue
        // deterministically against the largest components.
        uint64_t sum = c.cpiSum();
        if (sum != c.cycles) {
            std::array<size_t, kNumCpiComponents> idx{};
            for (size_t i = 0; i < idx.size(); ++i)
                idx[i] = i;
            std::stable_sort(idx.begin(), idx.end(),
                             [&c](size_t a, size_t b) {
                                 return c.cpi[a] > c.cpi[b];
                             });
            if (c.cycles > sum) {
                c.cpi[idx[0]] += c.cycles - sum;
            } else {
                uint64_t over = sum - c.cycles;
                for (size_t i : idx) {
                    uint64_t cut = std::min(over, c.cpi[i]);
                    c.cpi[i] -= cut;
                    over -= cut;
                    if (over == 0)
                        break;
                }
            }
        }
    }
    c.l1iAccesses = c.instructions;
    // Every memory op accesses the L1D except store-queue forwards
    // (exact in classic mode where storeForwards is zero; the
    // extrapolated forward count keeps the reconstruction consistent
    // with the detailed model's rate in lsq mode).
    uint64_t memOps = c.loads + c.stores;
    c.l1dAccesses =
        memOps > c.storeForwards ? memOps - c.storeForwards : 0;

    if (sink_)
        sink_->onRunEnd(c);
    res.console = exec_.console();
    return res;
}

RunResult
Machine::runFunctional(uint64_t max_instructions)
{
    RunResult res;
    Executor::FastResult fr =
        exec_.runFast(max_instructions, res.counters);
    res.halted = fr.halted;
    res.exitCode = fr.exitCode;
    res.console = exec_.console();
    return res;
}

} // namespace bp5::sim
