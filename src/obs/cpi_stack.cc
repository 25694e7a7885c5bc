#include "obs/cpi_stack.h"

#include "support/logging.h"

namespace bp5::obs {

CpiStack
CpiStack::fromCounters(const sim::Counters &c)
{
    CpiStack s;
    s.cycles = c.cpi;
    s.totalCycles = c.cycles;
    s.instructions = c.instructions;
    return s;
}

bool
CpiStack::consistent() const
{
    return sum() == totalCycles;
}

uint64_t
CpiStack::sum() const
{
    uint64_t s = 0;
    for (uint64_t v : cycles)
        s += v;
    return s;
}

double
CpiStack::share(sim::CpiComponent c) const
{
    return totalCycles ? double(cycles[size_t(c)]) / double(totalCycles)
                       : 0.0;
}

void
CpiStack::add(const CpiStack &o)
{
    for (size_t i = 0; i < cycles.size(); ++i)
        cycles[i] += o.cycles[i];
    totalCycles += o.totalCycles;
    instructions += o.instructions;
}

void
addCpiCells(support::ResultRow &row, const sim::Counters &c)
{
    // Exact integers, not shares: bp5-report diffs these cells
    // component-by-component and shares would hide one-cycle drifts.
    double cpi = c.instructions ? double(c.cycles) / double(c.instructions)
                                : 0.0;
    row.set("cpi", cpi, 4);
    for (size_t i = 0; i < c.cpi.size(); ++i) {
        row.set(std::string("cpi_") +
                    sim::cpiComponentKey(sim::CpiComponent(i)),
                c.cpi[i]);
    }
}

std::string
renderCpiStack(const CpiStack &s, unsigned barWidth)
{
    std::string out;
    uint64_t peak = 0;
    for (uint64_t v : s.cycles)
        if (v > peak)
            peak = v;
    for (size_t i = 0; i < s.cycles.size(); ++i) {
        auto comp = sim::CpiComponent(i);
        out += strprintf("  %-14s %12llu  %5.1f%%  ",
                         sim::cpiComponentLabel(comp),
                         (unsigned long long)s.cycles[i],
                         100.0 * s.share(comp));
        unsigned bar =
            peak ? unsigned((s.cycles[i] * barWidth + peak - 1) / peak) : 0;
        out.append(bar, '#');
        out += '\n';
    }
    out += strprintf("  %-14s %12llu  (ipc %.3f, cpi %.3f)%s\n", "total",
                     (unsigned long long)s.totalCycles,
                     s.totalCycles ? double(s.instructions) /
                                         double(s.totalCycles)
                                   : 0.0,
                     s.instructions ? double(s.totalCycles) /
                                          double(s.instructions)
                                    : 0.0,
                     s.consistent() ? "" : "  [INCONSISTENT]");
    return out;
}

void
CpiStackSink::onRunEnd(const sim::Counters &final)
{
    stack_.add(CpiStack::fromCounters(final));
    lastCommit_ = 0; // commit cycles are run-local
}

void
CpiStackSink::onInstruction(const sim::InstRecord &r, const sim::Counters &)
{
    latency_.add(r.commitCycle - r.fetchCycle);
    if (lastCommit_ != 0 && r.commitCycle > lastCommit_)
        gap_.add(r.commitCycle - lastCommit_);
    lastCommit_ = r.commitCycle;
}

} // namespace bp5::obs
