/**
 * @file
 * Sink plumbing for the observability layer: a multiplexer that fans
 * one Machine's event stream out to several sinks, and a base class
 * for sinks that want a cycle axis that is continuous across run()
 * calls (the Machine numbers cycles from zero in every run).
 */

#ifndef BIOPERF5_OBS_TRACE_MUX_H
#define BIOPERF5_OBS_TRACE_MUX_H

#include <vector>

#include "sim/trace.h"

namespace bp5::obs {

/** Fans every event out to each registered sink, in registration
 *  order.  Non-owning. */
class TraceMux final : public sim::TraceSink
{
  public:
    void
    add(sim::TraceSink *sink)
    {
        if (sink)
            sinks_.push_back(sink);
    }

    void
    onRunBegin(const sim::MachineConfig &mc) override
    {
        for (sim::TraceSink *s : sinks_)
            s->onRunBegin(mc);
    }
    void
    onRunEnd(const sim::Counters &final) override
    {
        for (sim::TraceSink *s : sinks_)
            s->onRunEnd(final);
    }
    void
    onInstruction(const sim::InstRecord &r,
                  const sim::Counters &c) override
    {
        for (sim::TraceSink *s : sinks_)
            s->onInstruction(r, c);
    }
    void
    onBranch(const sim::BranchRecord &r) override
    {
        for (sim::TraceSink *s : sinks_)
            s->onBranch(r);
    }
    void
    onFlush(const sim::FlushRecord &r) override
    {
        for (sim::TraceSink *s : sinks_)
            s->onFlush(r);
    }
    void
    onCacheMiss(const sim::CacheMissRecord &r) override
    {
        for (sim::TraceSink *s : sinks_)
            s->onCacheMiss(r);
    }

  private:
    std::vector<sim::TraceSink *> sinks_;
};

/**
 * Base for sinks that view one machine's successive run() calls as a
 * single continuous timeline (the KernelMachine invokes its kernel
 * many times per experiment).  Derived sinks map run-local cycles
 * through global(); overrides of onRunEnd must call the base.
 */
class RebasingSink : public sim::TraceSink
{
  public:
    void
    onRunEnd(const sim::Counters &final) override
    {
        cycleBase_ += final.cycles;
    }

  protected:
    uint64_t global(uint64_t runCycle) const { return cycleBase_ + runCycle; }

  private:
    uint64_t cycleBase_ = 0;
};

} // namespace bp5::obs

#endif // BIOPERF5_OBS_TRACE_MUX_H
