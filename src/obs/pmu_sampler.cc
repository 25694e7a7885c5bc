#include "obs/pmu_sampler.h"

#include "support/logging.h"

namespace bp5::obs {

namespace {

/** A derived rate column and the raw counter column it follows. */
struct RateColumn
{
    uint64_t sim::Counters::*after;
    const char *key;
    double (sim::Counters::*rate)() const;
};

constexpr RateColumn kRateColumns[] = {
    {&sim::Counters::instructions, "ipc", &sim::Counters::ipc},
    {&sim::Counters::mispredTarget, "mispredict_rate",
     &sim::Counters::branchMispredictRate},
    {&sim::Counters::l1dMisses, "l1d_miss_rate",
     &sim::Counters::l1dMissRate},
};

/**
 * Visits the counter columns of @p d in CSV order: raw(prefix, key,
 * value) for each kCounterFields row, stall reason and CPI component,
 * and rate(key, value) for each derived rate.  StallReason::None has
 * no column: it names a completing cycle, which is never a stall.
 */
template <class Raw, class Rate>
void
forEachColumn(const sim::Counters &d, Raw raw, Rate rate)
{
    for (const sim::CounterField &f : sim::kCounterFields) {
        raw("", f.key, d.*f.member);
        for (const RateColumn &rc : kRateColumns)
            if (rc.after == f.member)
                rate(rc.key, (d.*rc.rate)());
    }
    for (size_t i = size_t(sim::StallReason::Frontend);
         i < d.stallCycles.size(); ++i)
        raw("stall_", sim::stallReasonKey(sim::StallReason(i)),
            d.stallCycles[i]);
    for (size_t i = 0; i < d.cpi.size(); ++i)
        raw("cpi_", sim::cpiComponentKey(sim::CpiComponent(i)), d.cpi[i]);
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
    w.delta = global;
    w.delta.subtract(prev_);
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
        w.delta = base_;
        w.delta.subtract(prev_);
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
    std::string cols = "start_cycle,end_cycle";
    forEachColumn(
        sim::Counters(),
        [&cols](const char *prefix, const char *key, uint64_t) {
            cols += ',';
            cols += prefix;
            cols += key;
        },
        [&cols](const char *key, double) {
            cols += ',';
            cols += key;
        });
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
        out += strprintf("%llu,%llu", (unsigned long long)w.startCycle,
                         (unsigned long long)w.endCycle);
        forEachColumn(
            w.delta,
            [&out](const char *, const char *, uint64_t v) {
                out += strprintf(",%llu", (unsigned long long)v);
            },
            [&out](const char *, double v) {
                out += strprintf(",%.6f", v);
            });
        out += strprintf(",%d\n", int(w.partial));
    }
    return out;
}

} // namespace bp5::obs
