#include "sim/machine.h"

#include <algorithm>
#include <cstring>

#include "support/logging.h"

namespace bp5::sim {

void
Counters::add(const Counters &o)
{
    cycles += o.cycles;
    instructions += o.instructions;
    branches += o.branches;
    condBranches += o.condBranches;
    takenBranches += o.takenBranches;
    mispredDirection += o.mispredDirection;
    mispredTarget += o.mispredTarget;
    takenBubbles += o.takenBubbles;
    btacPredictions += o.btacPredictions;
    btacCorrect += o.btacCorrect;
    btacMispredicts += o.btacMispredicts;
    loads += o.loads;
    stores += o.stores;
    l1dAccesses += o.l1dAccesses;
    l1dMisses += o.l1dMisses;
    l1iAccesses += o.l1iAccesses;
    l1iMisses += o.l1iMisses;
    l2Misses += o.l2Misses;
    storeForwards += o.storeForwards;
    disambigFlushes += o.disambigFlushes;
    lsqFullLoads += o.lsqFullLoads;
    lsqFullStores += o.lsqFullStores;
    prefetchIssued += o.prefetchIssued;
    prefetchHits += o.prefetchHits;
    for (size_t i = 0; i < stallCycles.size(); ++i)
        stallCycles[i] += o.stallCycles[i];
    for (size_t i = 0; i < cpi.size(); ++i)
        cpi[i] += o.cpi[i];
    for (size_t i = 0; i < opCount.size(); ++i)
        opCount[i] += o.opCount[i];
}

/** Mutable scheduling state of the one-pass timing model. */
struct Machine::TimingState
{
    explicit TimingState(const MachineConfig &cfg)
        : robCommitCycle(cfg.robSize, 0)
    {
        unitFree[size_t(isa::Unit::FXU)].assign(cfg.numFXU, 0);
        unitFree[size_t(isa::Unit::LSU)].assign(cfg.numLSU, 0);
        unitFree[size_t(isa::Unit::BRU)].assign(cfg.numBRU, 0);
        unitFree[size_t(isa::Unit::CRU)].assign(cfg.numCRU, 0);
    }

    // Fetch.
    uint64_t fetchAvail = 0;       ///< earliest fetch cycle for next inst
    unsigned fetchedThisCycle = 0;
    uint64_t fetchCycleCursor = 0; ///< cycle fetchedThisCycle refers to
    unsigned redirectShadow = 0;   ///< instrs fetched right after a flush

    // Dispatch.
    uint64_t dispatchCycleCursor = 0;
    unsigned dispatchedThisCycle = 0;

    // Register readiness.
    std::array<uint64_t, isa::kNumDepRegs> regReady{};
    std::array<isa::Unit, isa::kNumDepRegs> regProducer{};

    // Execution units: next free cycle per instance, per class.
    std::array<std::vector<uint64_t>, 5> unitFree;

    // ROB occupancy: commit cycle of the instruction robSize back.
    std::vector<uint64_t> robCommitCycle;
    size_t robSlot = 0; ///< seq % robSize, kept wrapped (no divide)
    uint64_t seq = 0;   ///< dynamic instruction index

    // Commit.
    uint64_t lastCommitCycle = 0;
    unsigned committedThisCycle = 0;

    // Cause of the redirect whose shadow instructions are still being
    // fetched: false = branch misprediction, true = load-ordering
    // violation (disambiguation squash).
    bool redirectDisambig = false;

    // Cycle accounting: cycles 1..lastAccounted are already attributed
    // to a CpiComponent.  Commit cycles are monotonic and cycles ==
    // the last commit cycle, so attributing each gap as it closes
    // keeps sum(cpi) == cycles at every instruction boundary.
    uint64_t lastAccounted = 0;

    // POWER5-style completion groups (for the CPI-stack counters):
    // up to five instructions complete together; cycles without a
    // group completion are attributed to the slowest member.
    unsigned groupSize = 0;
    uint64_t groupMaxCc = 0; ///< slowest member's completion time
    StallReason groupReason = StallReason::Other;
    uint64_t lastGroupCommit = 0;

    // Store-to-load ordering state lives in the MemorySystem (the
    // classic store table, or the LSQ); Machine::run calls
    // memsys_.beginRun() wherever a TimingState is constructed.
};

Machine::Machine(const MachineConfig &config)
    : config_(config), exec_(state_, mem_),
      l2_(config.l2, nullptr, config.memLatency),
      l1i_(config.l1i, &l2_, config.memLatency),
      l1d_(config.l1d, &l2_, config.memLatency),
      memsys_(config.memsys, &l1d_, &l2_),
      predictor_(makePredictor(config.predictor, config.predictorEntries,
                               config.predictorHistoryBits)),
      btac_(config.btac)
{
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
    predictor_ = makePredictor(config_.predictor, config_.predictorEntries,
                               config_.predictorHistoryBits);
    btac_ = Btac(config_.btac);
    exec_.clearConsole();
    // The micro-op image is semantically invisible (decode is a pure
    // function of memory, and loadProgram() re-registers it), but drop
    // the decoded slots anyway so a reset machine is indistinguishable
    // from a fresh one even for programs that store to their own code
    // pages; they rebuild lazily from the still-resident memory.
    exec_.invalidateDecodeCache();
    branchProfiling_ = false;
    branchProfile_.clear();
    stallProfiling_ = false;
    stallProfile_.clear();
    sink_ = nullptr;
    sampling_ = SamplingParams();
    timing_.reset();
}

namespace {

/** Classify the producing unit of the critical source operand. */
StallReason
unitToReason(isa::Unit u)
{
    switch (u) {
      case isa::Unit::FXU:
        return StallReason::FXU;
      case isa::Unit::LSU:
        return StallReason::LSU;
      case isa::Unit::BRU:
      case isa::Unit::CRU:
        return StallReason::Other;
      default:
        return StallReason::Other;
    }
}

} // namespace

void
Machine::scheduleInstruction(const StepInfo &info, TimingState &ts,
                             Counters &c)
{
    const isa::Inst &inst = info.inst;
    const isa::OpInfo &opi = inst.info();
    const unsigned frontDepth = config_.frontendDepth;
    const uint64_t seqno = ts.seq; ///< dynamic index of this instruction

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
    uint64_t before = l1i_.stats().misses;
    unsigned ilat = l1i_.access(info.pc, false);
    bool icache_miss = l1i_.stats().misses != before;
    if (icache_miss) {
        ++c.l1iMisses;
        fc += ilat;
        ts.fetchAvail = fc;
        ts.fetchCycleCursor = fc;
        ts.fetchedThisCycle = 1;
        if (sink_) {
            CacheMissRecord mr;
            mr.level = CacheMissRecord::Level::L1I;
            mr.seq = seqno;
            mr.pc = info.pc;
            mr.addr = info.pc;
            mr.cycle = fc;
            sink_->onCacheMiss(mr);
        }
    }

    bool fetch_after_redirect = ts.redirectShadow > 0;
    bool fetch_after_disambig = fetch_after_redirect && ts.redirectDisambig;
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
    uint64_t rob_free = ts.robCommitCycle[ts.robSlot];
    bool rob_limited = false;
    if (ts.seq >= config_.robSize && dc <= rob_free) {
        dc = rob_free + 1;
        rob_limited = true;
    }
    // Load/store queue space (lsq mode; a no-op in classic mode).
    bool lsq_limited = false;
    if (info.isLoad || info.isStore)
        dc = memsys_.reserve(info.isLoad, dc, &lsq_limited);
    if (lsq_limited) {
        if (info.isLoad)
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
    unsigned deps[isa::kMaxDeps];
    unsigned ndeps = srcDeps(inst, deps);
    uint64_t rc_cycle = dc;
    isa::Unit critical_producer = isa::Unit::NONE;
    for (unsigned i = 0; i < ndeps; ++i) {
        uint64_t rdy = ts.regReady[deps[i]];
        if (rdy > rc_cycle) {
            rc_cycle = rdy;
            critical_producer = ts.regProducer[deps[i]];
        }
    }

    // Store-to-load ordering through the memory system: the classic
    // store table makes the load wait for the store's completion; the
    // LSQ may instead forward the data or speculate (and violate).
    bool load_after_store = false;
    bool forwarded = false;
    bool disambig_violation = false;
    uint64_t conflict_complete = 0;
    if (info.isLoad) {
        LoadStoreQueue::Order ord =
            memsys_.orderLoad(info.pc, info.memAddr, rc_cycle);
        if (ord.ready > rc_cycle) {
            rc_cycle = ord.ready;
            load_after_store = true;
        }
        forwarded = ord.forwarded;
        disambig_violation = ord.violation;
        conflict_complete = ord.conflictComplete;
    }

    // ------------------------------------------------------------- issue
    auto &frees = ts.unitFree[size_t(opi.unit)];
    size_t best = 0;
    for (size_t i = 1; i < frees.size(); ++i) {
        if (frees[i] < frees[best])
            best = i;
    }
    uint64_t ic = std::max(rc_cycle, frees[best]);
    bool unit_contended = frees[best] > rc_cycle;

    // Unit occupancy: divides block the unit; multiplies for 2 cycles.
    uint64_t occupancy = 1;
    if (inst.op == isa::Op::DIVD || inst.op == isa::Op::DIVDU)
        occupancy = opi.latency;
    else if (inst.op == isa::Op::MULLD || inst.op == isa::Op::MULLI)
        occupancy = 2;
    frees[best] = ic + occupancy;

    // ---------------------------------------------------------- complete
    uint64_t latency = opi.latency;
    bool dcache_miss = false;
    bool l2_miss = false;
    if (forwarded) {
        // Load served from the store queue: no cache access at all,
        // just the forward latency once the data is ready.
        latency = memsys_.params().lsq.forwardLatency;
        ++c.storeForwards;
    } else if (info.isLoad || info.isStore) {
        ++c.l1dAccesses;
        MemorySystem::Access ar =
            memsys_.access(info.pc, info.memAddr, info.isStore, ic);
        if (ar.l1dMiss) {
            ++c.l1dMisses;
            dcache_miss = true;
        }
        if (ar.l2Miss) {
            ++c.l2Misses;
            l2_miss = true;
        }
        if (ar.prefetchedHit)
            ++c.prefetchHits;
        c.prefetchIssued += ar.prefetchIssued;
        if (sink_ && (dcache_miss || l2_miss)) {
            CacheMissRecord mr;
            mr.seq = seqno;
            mr.pc = info.pc;
            mr.addr = info.memAddr;
            mr.cycle = ic;
            mr.isStore = info.isStore;
            if (dcache_miss) {
                mr.level = CacheMissRecord::Level::L1D;
                sink_->onCacheMiss(mr);
            }
            if (l2_miss) {
                mr.level = CacheMissRecord::Level::L2;
                sink_->onCacheMiss(mr);
            }
        }
        if (info.isLoad) {
            latency = 1 + ar.latency; // L1 hit => 1 + hitLatency = 2
        } else {
            latency = 1; // store completes; writeback is buffered
        }
    }
    uint64_t cc = ic + latency;

    if (disambig_violation) {
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
        if (sink_) {
            FlushRecord fr;
            fr.seq = seqno;
            fr.pc = info.pc;
            fr.resolveCycle = cc;
            fr.refetchCycle = ts.fetchAvail;
            fr.cause = FlushRecord::Cause::Disambig;
            sink_->onFlush(fr);
        }
    }

    if (info.isStore)
        memsys_.storeComplete(info.memAddr, cc);

    // Register results become available at completion.
    unsigned dsts[isa::kMaxDeps];
    unsigned ndsts = dstDeps(inst, dsts);
    for (unsigned i = 0; i < ndsts; ++i) {
        ts.regReady[dsts[i]] = cc;
        ts.regProducer[dsts[i]] = opi.unit;
    }

    // ---------------------------------------------------------- branches
    bool redirect = false;
    bool direction_mispredict = false;
    bool target_mispredict = false;
    if (info.isBranch) {
        ++c.branches;
        if (info.taken)
            ++c.takenBranches;

        Btac::Lookup bl;
        if (config_.btacEnabled)
            bl = btac_.lookup(info.pc);

        bool pred = false;
        if (info.isCondBranch) {
            ++c.condBranches;
            pred = predictor_->predict(info.pc);
            predictor_->update(info.pc, info.taken);
            direction_mispredict = pred != info.taken;
        }

        // Indirect branches: bclr is covered by a (modelled-perfect)
        // link stack; bcctr needs the BTAC for its target.
        if (inst.op == isa::Op::BCCTR && info.taken &&
            !(bl.predict && bl.nia == info.target)) {
            target_mispredict = true;
        }

        if (config_.btacEnabled) {
            btac_.update(info.pc, info.taken, info.target, bl);
            if (bl.predict) {
                ++c.btacPredictions;
                bool ok = info.taken && bl.nia == info.target;
                if (ok)
                    ++c.btacCorrect;
                else
                    ++c.btacMispredicts;
            }
        }

        bool btac_wrong = bl.predict &&
                          !(info.taken && bl.nia == info.target);

        if (direction_mispredict || target_mispredict) {
            if (direction_mispredict)
                ++c.mispredDirection;
            else
                ++c.mispredTarget;
            // Flush: refetch after the branch resolves.
            ts.fetchAvail = cc + 1 + config_.mispredictPenalty;
            redirect = true;
        } else if (btac_wrong) {
            // BTAC steered fetch to the wrong place; same redirect cost.
            ts.fetchAvail = cc + 1 + config_.mispredictPenalty;
            redirect = true;
        } else if (info.taken) {
            bool btac_covers = bl.predict && bl.nia == info.target;
            if (btac_covers) {
                // Target known at fetch: only the fetch-group break.
                ts.fetchAvail = fc + 1;
            } else {
                ts.fetchAvail = fc + 1 + config_.effectiveTakenPenalty();
                ++c.takenBubbles;
            }
        }
        if (redirect) {
            ts.redirectShadow = config_.commitWidth;
            ts.redirectDisambig = false;
        }

        if (sink_) {
            BranchRecord br;
            br.seq = seqno;
            br.pc = info.pc;
            br.target = info.target;
            br.resolveCycle = cc;
            br.conditional = info.isCondBranch;
            br.taken = info.taken;
            br.predictedTaken = pred;
            br.directionMispredict = direction_mispredict;
            br.targetMispredict = target_mispredict;
            br.btacPredicted = bl.predict;
            br.btacCorrect = bl.predict && info.taken &&
                             bl.nia == info.target;
            sink_->onBranch(br);
            if (redirect) {
                FlushRecord fr;
                fr.seq = seqno;
                fr.pc = info.pc;
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

        if (branchProfiling_) {
            BranchSiteStats &site = branchProfile_[info.pc];
            ++site.executions;
            if (info.taken)
                ++site.taken;
            if (direction_mispredict)
                ++site.mispredDirection;
            else if (target_mispredict)
                ++site.mispredTarget;
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

    // POWER5-style completion-stall attribution: classify this
    // instruction's delay cause (PM_CMPLU_STALL_* analogue).
    StallReason reason;
    {
        bool late_in_backend = rc_cycle > dc || unit_contended ||
                               dcache_miss || load_after_store;
        if (fetch_after_redirect) {
            reason = StallReason::Branch;
        } else if (dcache_miss || disambig_violation) {
            reason = StallReason::LSU;
        } else if (late_in_backend) {
            reason = unitToReason(opi.unit);
            if (reason == StallReason::Other &&
                critical_producer != isa::Unit::NONE) {
                reason = unitToReason(critical_producer);
            }
        } else if (rob_limited) {
            reason = StallReason::Other;
        } else {
            reason = StallReason::Frontend;
        }
    }
    // CPI-stack attribution (DESIGN.md section 4.10): classify this
    // instruction's delay into the component that wins under the
    // documented priority order, then attribute every cycle up to its
    // commit.  Commit cycles are monotonic, so charging each newly
    // closed gap keeps sum(cpi) == cycles bit-exactly at every
    // instruction boundary (and hence per PmuSampler window).
    CpiComponent comp;
    {
        bool late_in_backend = rc_cycle > dc || unit_contended ||
                               dcache_miss || load_after_store;
        if (disambig_violation) {
            comp = CpiComponent::DisambigFlush;
        } else if (fetch_after_redirect) {
            comp = fetch_after_disambig ? CpiComponent::DisambigFlush
                                        : CpiComponent::BranchFlush;
        } else if (dcache_miss) {
            comp = l2_miss ? CpiComponent::LsuMem : CpiComponent::LsuL2;
        } else if (late_in_backend) {
            if (forwarded) {
                comp = CpiComponent::LsuFwd;
            } else {
                isa::Unit u = opi.unit;
                if (u != isa::Unit::FXU && u != isa::Unit::LSU &&
                    critical_producer != isa::Unit::NONE) {
                    u = critical_producer;
                }
                comp = u == isa::Unit::FXU   ? CpiComponent::Fxu
                       : u == isa::Unit::LSU ? CpiComponent::LsuL1
                                             : CpiComponent::Other;
            }
        } else if (lsq_limited) {
            comp = CpiComponent::LsqFull;
        } else if (rob_limited) {
            comp = CpiComponent::RobFull;
        } else {
            comp = CpiComponent::Frontend;
        }
    }
    if (commit > ts.lastAccounted) {
        uint64_t gap = commit - ts.lastAccounted - 1;
        if (gap > 0) {
            c.cpi[size_t(comp)] += gap;
            if (stallProfiling_)
                stallProfile_[info.pc].cycles[size_t(comp)] += gap;
        }
        ++c.cpi[size_t(CpiComponent::Completing)];
        ts.lastAccounted = commit;
    }

    // Group accounting: groups end at width or at a taken branch
    // (POWER5 group formation); the gap between group completions is
    // charged to the slowest member's reason.
    if (ts.groupSize == 0 || cc >= ts.groupMaxCc) {
        ts.groupMaxCc = cc;
        ts.groupReason = reason;
    }
    ++ts.groupSize;
    bool group_ends = ts.groupSize >= config_.commitWidth ||
                      (info.isBranch && info.taken);
    if (group_ends) {
        if (commit > ts.lastGroupCommit + 1 && ts.seq > 0) {
            c.stallCycles[size_t(ts.groupReason)] +=
                commit - ts.lastGroupCommit - 1;
        }
        ts.lastGroupCommit = commit;
        ts.groupSize = 0;
    }

    ts.robCommitCycle[ts.robSlot] = commit;
    if (++ts.robSlot == ts.robCommitCycle.size())
        ts.robSlot = 0;
    if (info.isLoad || info.isStore)
        memsys_.commit(info.isLoad, commit);
    ++ts.seq;

    // ---------------------------------------------------------- counters
    ++c.instructions;
    ++c.opCount[size_t(inst.op)];
    if (info.isLoad)
        ++c.loads;
    if (info.isStore)
        ++c.stores;
    c.cycles = commit;

    if (sink_) {
        InstRecord rec;
        rec.seq = seqno;
        rec.pc = info.pc;
        rec.inst = inst;
        rec.fetchCycle = fc;
        rec.dispatchCycle = dc;
        rec.issueCycle = ic;
        rec.writebackCycle = cc;
        rec.commitCycle = commit;
        rec.stall = reason;
        rec.component = comp;
        rec.isBranch = info.isBranch;
        rec.isCondBranch = info.isCondBranch;
        rec.taken = info.isBranch && info.taken;
        rec.mispredicted = direction_mispredict || target_mispredict;
        rec.isLoad = info.isLoad;
        rec.isStore = info.isStore;
        rec.memAddr = info.memAddr;
        rec.l1iMiss = icache_miss;
        rec.l1dMiss = dcache_miss;
        rec.l2Miss = l2_miss;
        rec.forwarded = forwarded;
        rec.disambigFlush = disambig_violation;
        if ((info.isLoad || info.isStore) && !memsys_.classic()) {
            rec.lsqLoadOcc = memsys_.occupancy(true, dc);
            rec.lsqStoreOcc = memsys_.occupancy(false, dc);
        }
        sink_->onInstruction(rec, c);
    }
}

RunResult
Machine::run(uint64_t max_instructions)
{
    if (sampling_.enabled())
        return runSampled(max_instructions);

    RunResult res;
    timing_ = std::make_unique<TimingState>(config_);
    memsys_.beginRun();
    TimingState &ts = *timing_;
    Counters &c = res.counters;
    if (sink_)
        sink_->onRunBegin(config_);

    for (uint64_t n = 0; n < max_instructions; ++n) {
        StepInfo info = exec_.step();
        scheduleInstruction(info, ts, c);
        if (info.halted) {
            res.halted = true;
            res.exitCode = info.exitCode;
            break;
        }
    }
    if (sink_)
        sink_->onRunEnd(c);
    res.console = exec_.console();
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
 * - Architectural counters (instructions, opCount, branch and memory
 *   op counts) are exact: the fast-forward phases execute the same
 *   committed stream and their counts merge in unscaled.
 * - Event counters (cycles, mispredicts, taken bubbles, BTAC stats,
 *   cache misses, stall cycles) are measured inside the windows only
 *   and extrapolated by total/measured instructions.  l1iAccesses and
 *   l1dAccesses are reconstructed exactly (one per instruction and one
 *   per memory op respectively, as in the detailed model).
 * - With functionalWarming the direction predictor, BTAC and L1D stay
 *   warm across fast-forward (the detailed model's own update rules);
 *   the L1I is not warmed — the kernels' code footprint is a few lines
 *   and refills within a window.
 * - The cycle axis stays continuous across windows (fast-forward adds
 *   no cycles) and trace-sink events fire only inside windows, so an
 *   attached PmuSampler sees a compressed but monotonic timeline.
 */
RunResult
Machine::runSampled(uint64_t max_instructions)
{
    RunResult res;
    res.sampled = true;
    timing_ = std::make_unique<TimingState>(config_);
    memsys_.beginRun();
    TimingState &ts = *timing_;
    Counters &c = res.counters;
    Counters ff; ///< architectural counts from fast-forward phases
    if (sink_)
        sink_->onRunBegin(config_);

    Executor::Warming warm;
    warm.pred = predictor_.get();
    warm.btac = config_.btacEnabled ? &btac_ : nullptr;
    warm.l1d = &l1d_;
    const Executor::Warming *warmp =
        sampling_.functionalWarming ? &warm : nullptr;

    uint64_t remaining = max_instructions;
    while (remaining > 0) {
        uint64_t window =
            std::min(sampling_.detailInstructions, remaining);
        bool halted = false;
        for (uint64_t n = 0; n < window; ++n) {
            StepInfo info = exec_.step();
            scheduleInstruction(info, ts, c);
            --remaining;
            if (info.halted) {
                res.halted = true;
                res.exitCode = info.exitCode;
                halted = true;
                break;
            }
        }
        ++res.sampling.windows;
        if (halted || remaining == 0)
            break;

        uint64_t skip = std::min(sampling_.skipInstructions, remaining);
        Executor::FastResult fr = exec_.runFast(skip, ff, warmp);
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

    // Exact architectural merge.
    c.instructions += ff.instructions;
    c.branches += ff.branches;
    c.condBranches += ff.condBranches;
    c.takenBranches += ff.takenBranches;
    c.loads += ff.loads;
    c.stores += ff.stores;
    for (size_t i = 0; i < c.opCount.size(); ++i)
        c.opCount[i] += ff.opCount[i];

    // Event extrapolation from the measured windows.
    if (res.sampling.detailedInstructions > 0 &&
        ff.instructions > 0) {
        double r = static_cast<double>(c.instructions) /
                   static_cast<double>(res.sampling.detailedInstructions);
        c.cycles = scaleCounter(c.cycles, r);
        c.mispredDirection = scaleCounter(c.mispredDirection, r);
        c.mispredTarget = scaleCounter(c.mispredTarget, r);
        c.takenBubbles = scaleCounter(c.takenBubbles, r);
        c.btacPredictions = scaleCounter(c.btacPredictions, r);
        c.btacCorrect = scaleCounter(c.btacCorrect, r);
        c.btacMispredicts = scaleCounter(c.btacMispredicts, r);
        c.l1dMisses = scaleCounter(c.l1dMisses, r);
        c.l1iMisses = scaleCounter(c.l1iMisses, r);
        c.l2Misses = scaleCounter(c.l2Misses, r);
        c.storeForwards = scaleCounter(c.storeForwards, r);
        c.disambigFlushes = scaleCounter(c.disambigFlushes, r);
        c.lsqFullLoads = scaleCounter(c.lsqFullLoads, r);
        c.lsqFullStores = scaleCounter(c.lsqFullStores, r);
        c.prefetchIssued = scaleCounter(c.prefetchIssued, r);
        c.prefetchHits = scaleCounter(c.prefetchHits, r);
        for (size_t i = 0; i < c.stallCycles.size(); ++i)
            c.stallCycles[i] = scaleCounter(c.stallCycles[i], r);
        for (size_t i = 0; i < c.cpi.size(); ++i)
            c.cpi[i] = scaleCounter(c.cpi[i], r);
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

namespace {

/**
 * Deprecated-shim sampler: reproduces the pre-obs run(max, interval)
 * timeline bit-for-bit — run-local cycles, sampling phase starting at
 * one interval, no trailing partial sample — on top of the generic
 * event hook, chaining to any sink the caller had attached.
 */
class LegacyTimelineSink final : public TraceSink
{
  public:
    LegacyTimelineSink(uint64_t interval, TraceSink *chain)
        : interval_(interval), next_(interval), chain_(chain)
    {
    }

    TraceSink *chain() const { return chain_; }

    void
    onRunBegin(const MachineConfig &mc) override
    {
        if (chain_)
            chain_->onRunBegin(mc);
    }
    void
    onRunEnd(const Counters &final) override
    {
        if (chain_)
            chain_->onRunEnd(final);
    }
    void
    onBranch(const BranchRecord &r) override
    {
        if (chain_)
            chain_->onBranch(r);
    }
    void
    onFlush(const FlushRecord &r) override
    {
        if (chain_)
            chain_->onFlush(r);
    }
    void
    onCacheMiss(const CacheMissRecord &r) override
    {
        if (chain_)
            chain_->onCacheMiss(r);
    }

    void
    onInstruction(const InstRecord &r, const Counters &c) override
    {
        if (chain_)
            chain_->onInstruction(r, c);
        if (c.cycles < next_)
            return;
        const Counters &prev = prev_;
        IntervalSample s;
        s.cycle = c.cycles;
        uint64_t dc = c.cycles - prev.cycles;
        uint64_t di = c.instructions - prev.instructions;
        uint64_t db = c.condBranches - prev.condBranches;
        uint64_t dm = (c.mispredDirection + c.mispredTarget) -
                      (prev.mispredDirection + prev.mispredTarget);
        uint64_t da = c.l1dAccesses - prev.l1dAccesses;
        uint64_t dmiss = c.l1dMisses - prev.l1dMisses;
        s.ipc = dc ? double(di) / double(dc) : 0.0;
        s.branchMispredictRate = db ? double(dm) / double(db) : 0.0;
        s.l1dMissRate = da ? double(dmiss) / double(da) : 0.0;
        samples.push_back(s);
        prev_ = c;
        while (next_ <= c.cycles)
            next_ += interval_;
    }

    std::vector<IntervalSample> samples;

  private:
    uint64_t interval_;
    uint64_t next_;
    Counters prev_;
    TraceSink *chain_;
};

} // namespace

RunResult
Machine::run(uint64_t max_instructions, uint64_t interval_cycles)
{
    if (interval_cycles == 0)
        return run(max_instructions);
    // The shim predates sampled timing: its callers expect the
    // historical full-detail timeline bit-for-bit, so sampling is
    // suspended for the duration of the shim run.
    SamplingParams saved = sampling_;
    sampling_ = SamplingParams();
    LegacyTimelineSink legacy(interval_cycles, sink_);
    sink_ = &legacy;
    RunResult res = run(max_instructions);
    sink_ = legacy.chain();
    sampling_ = saved;
    res.timeline = std::move(legacy.samples);
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
