#include "obs/pmu_sampler.h"

#include "support/logging.h"

namespace bp5::obs {

namespace {

/** Field-wise a - b (a must dominate b; counters only ever grow). */
sim::Counters
sub(const sim::Counters &a, const sim::Counters &b)
{
    sim::Counters d;
    d.cycles = a.cycles - b.cycles;
    d.instructions = a.instructions - b.instructions;
    d.branches = a.branches - b.branches;
    d.condBranches = a.condBranches - b.condBranches;
    d.takenBranches = a.takenBranches - b.takenBranches;
    d.mispredDirection = a.mispredDirection - b.mispredDirection;
    d.mispredTarget = a.mispredTarget - b.mispredTarget;
    d.takenBubbles = a.takenBubbles - b.takenBubbles;
    d.btacPredictions = a.btacPredictions - b.btacPredictions;
    d.btacCorrect = a.btacCorrect - b.btacCorrect;
    d.btacMispredicts = a.btacMispredicts - b.btacMispredicts;
    d.loads = a.loads - b.loads;
    d.stores = a.stores - b.stores;
    d.l1dAccesses = a.l1dAccesses - b.l1dAccesses;
    d.l1dMisses = a.l1dMisses - b.l1dMisses;
    d.l1iAccesses = a.l1iAccesses - b.l1iAccesses;
    d.l1iMisses = a.l1iMisses - b.l1iMisses;
    d.l2Misses = a.l2Misses - b.l2Misses;
    d.storeForwards = a.storeForwards - b.storeForwards;
    d.disambigFlushes = a.disambigFlushes - b.disambigFlushes;
    d.lsqFullLoads = a.lsqFullLoads - b.lsqFullLoads;
    d.lsqFullStores = a.lsqFullStores - b.lsqFullStores;
    d.prefetchIssued = a.prefetchIssued - b.prefetchIssued;
    d.prefetchHits = a.prefetchHits - b.prefetchHits;
    for (size_t i = 0; i < d.stallCycles.size(); ++i)
        d.stallCycles[i] = a.stallCycles[i] - b.stallCycles[i];
    for (size_t i = 0; i < d.cpi.size(); ++i)
        d.cpi[i] = a.cpi[i] - b.cpi[i];
    for (size_t i = 0; i < d.opCount.size(); ++i)
        d.opCount[i] = a.opCount[i] - b.opCount[i];
    return d;
}

} // namespace

PmuSampler::PmuSampler(uint64_t interval_cycles)
    : interval_(interval_cycles), next_(interval_cycles)
{
    BP5_ASSERT(interval_cycles > 0, "PMU sampling interval must be nonzero");
}

void
PmuSampler::closeWindow(const sim::Counters &global, bool partial)
{
    PmuInterval w;
    w.startCycle = prevCycle_;
    w.endCycle = global.cycles;
    w.delta = sub(global, prev_);
    w.partial = partial;
    done_.push_back(w);
    prev_ = global;
    prevCycle_ = global.cycles;
}

void
PmuSampler::onRunEnd(const sim::Counters &final)
{
    base_.add(final);
}

void
PmuSampler::onInstruction(const sim::InstRecord &, const sim::Counters &c)
{
    uint64_t gcycle = base_.cycles + c.cycles;
    if (gcycle < next_)
        return;
    sim::Counters global = base_;
    global.add(c);
    closeWindow(global, false);
    while (next_ <= gcycle)
        next_ += interval_;
}

std::vector<PmuInterval>
PmuSampler::intervals(bool include_trailing) const
{
    std::vector<PmuInterval> out = done_;
    if (include_trailing && !(base_ == prev_)) {
        PmuInterval w;
        w.startCycle = prevCycle_;
        w.endCycle = base_.cycles;
        w.delta = sub(base_, prev_);
        w.partial = true;
        out.push_back(w);
    }
    return out;
}

std::vector<sim::IntervalSample>
PmuSampler::timeline(bool include_trailing) const
{
    std::vector<sim::IntervalSample> out;
    for (const PmuInterval &w : intervals(include_trailing)) {
        sim::IntervalSample s;
        s.cycle = w.endCycle;
        s.ipc = w.delta.ipc();
        s.branchMispredictRate = w.delta.branchMispredictRate();
        s.l1dMissRate = w.delta.l1dMissRate();
        out.push_back(s);
    }
    return out;
}

std::string
PmuSampler::csvColumns()
{
    std::string cols =
        "start_cycle,end_cycle,cycles,instructions,ipc,"
        "branches,cond_branches,taken_branches,mispred_direction,"
        "mispred_target,mispredict_rate,taken_bubbles,"
        "loads,stores,l1d_accesses,l1d_misses,l1d_miss_rate,"
        "l1i_accesses,l1i_misses,l2_misses,"
        "store_forwards,disambig_flushes,lsq_full_loads,"
        "lsq_full_stores,prefetch_issued,prefetch_hits,"
        "stall_frontend,stall_branch,stall_fxu,stall_lsu,stall_other";
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
        cols += ",cpi_";
        cols += sim::cpiComponentKey(sim::CpiComponent(i));
    }
    cols += ",partial";
    return cols;
}

std::string
PmuSampler::csvHeader()
{
    // The schema comment and the column row are generated from the
    // same list so they cannot drift apart; parsers may key on either.
    std::string cols = csvColumns();
    return "# schema: " + cols + "\n" + cols + "\n";
}

std::string
PmuSampler::toCsv(bool include_trailing) const
{
    std::string out = csvHeader();
    for (const PmuInterval &w : intervals(include_trailing)) {
        const sim::Counters &d = w.delta;
        out += strprintf(
            "%llu,%llu,%llu,%llu,%.6f,"
            "%llu,%llu,%llu,%llu,%llu,%.6f,%llu,"
            "%llu,%llu,%llu,%llu,%.6f,%llu,%llu,%llu,"
            "%llu,%llu,%llu,%llu,%llu,%llu,"
            "%llu,%llu,%llu,%llu,%llu",
            (unsigned long long)w.startCycle,
            (unsigned long long)w.endCycle,
            (unsigned long long)d.cycles,
            (unsigned long long)d.instructions, d.ipc(),
            (unsigned long long)d.branches,
            (unsigned long long)d.condBranches,
            (unsigned long long)d.takenBranches,
            (unsigned long long)d.mispredDirection,
            (unsigned long long)d.mispredTarget, d.branchMispredictRate(),
            (unsigned long long)d.takenBubbles,
            (unsigned long long)d.loads, (unsigned long long)d.stores,
            (unsigned long long)d.l1dAccesses,
            (unsigned long long)d.l1dMisses, d.l1dMissRate(),
            (unsigned long long)d.l1iAccesses,
            (unsigned long long)d.l1iMisses,
            (unsigned long long)d.l2Misses,
            (unsigned long long)d.storeForwards,
            (unsigned long long)d.disambigFlushes,
            (unsigned long long)d.lsqFullLoads,
            (unsigned long long)d.lsqFullStores,
            (unsigned long long)d.prefetchIssued,
            (unsigned long long)d.prefetchHits,
            (unsigned long long)d.stallCycles[size_t(
                sim::StallReason::Frontend)],
            (unsigned long long)d.stallCycles[size_t(
                sim::StallReason::Branch)],
            (unsigned long long)d.stallCycles[size_t(sim::StallReason::FXU)],
            (unsigned long long)d.stallCycles[size_t(sim::StallReason::LSU)],
            (unsigned long long)d.stallCycles[size_t(
                sim::StallReason::Other)]);
        for (size_t i = 0; i < d.cpi.size(); ++i)
            out += strprintf(",%llu", (unsigned long long)d.cpi[i]);
        out += strprintf(",%d\n", int(w.partial));
    }
    return out;
}

std::vector<support::ResultRow>
PmuSampler::toRows(bool include_trailing) const
{
    std::vector<support::ResultRow> rows;
    for (const PmuInterval &w : intervals(include_trailing)) {
        const sim::Counters &d = w.delta;
        support::ResultRow row;
        row.set("start_cycle", w.startCycle)
            .set("end_cycle", w.endCycle)
            .set("cycles", d.cycles)
            .set("instructions", d.instructions)
            .set("ipc", d.ipc())
            .setPct("mispredict", d.branchMispredictRate())
            .setPct("l1d_miss", d.l1dMissRate())
            .setPct("stall_fxu", d.stallShare(sim::StallReason::FXU))
            .setPct("flush/cyc",
                    d.cpiShare(sim::CpiComponent::BranchFlush))
            .set("partial", w.partial ? "yes" : "no");
        rows.push_back(std::move(row));
    }
    return rows;
}

void
PmuSampler::reset()
{
    next_ = interval_;
    base_ = sim::Counters();
    prev_ = sim::Counters();
    prevCycle_ = 0;
    done_.clear();
}

} // namespace bp5::obs
