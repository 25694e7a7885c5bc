#include "sim/counters.h"

namespace bp5::sim {

namespace {

/** Calls @p op(a's field, b's field) for every field, arrays included. */
template <class Op>
void
zipCounters(Counters &a, const Counters &b, Op op)
{
    for (const CounterField &f : kCounterFields)
        op(a.*f.member, b.*f.member);
    for (size_t i = 0; i < a.stallCycles.size(); ++i)
        op(a.stallCycles[i], b.stallCycles[i]);
    for (size_t i = 0; i < a.cpi.size(); ++i)
        op(a.cpi[i], b.cpi[i]);
    for (size_t i = 0; i < a.opCount.size(); ++i)
        op(a.opCount[i], b.opCount[i]);
}

} // namespace

void
Counters::add(const Counters &other)
{
    zipCounters(*this, other, [](uint64_t &x, uint64_t y) { x += y; });
}

void
Counters::subtract(const Counters &other)
{
    zipCounters(*this, other, [](uint64_t &x, uint64_t y) { x -= y; });
}

} // namespace bp5::sim
