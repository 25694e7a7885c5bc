#include "obs/perfetto_sink.h"

#include <cstdio>

#include "isa/disasm.h"
#include "sim/config.h"
#include "support/logging.h"
#include "support/result.h"

namespace bp5::obs {

namespace {

const char *
flushCauseName(sim::FlushRecord::Cause c)
{
    switch (c) {
    case sim::FlushRecord::Cause::Direction: return "direction";
    case sim::FlushRecord::Cause::Target: return "target";
    case sim::FlushRecord::Cause::Disambig: return "disambig";
    default: return "btac-steer";
    }
}

const char *
missLevelName(sim::CacheMissRecord::Level l)
{
    switch (l) {
    case sim::CacheMissRecord::Level::L1I: return "L1I miss";
    case sim::CacheMissRecord::Level::L1D: return "L1D miss";
    default: return "L2 miss";
    }
}

constexpr unsigned kFlushLaneOffset = 0;  ///< lanes_ + 0
constexpr unsigned kMissLaneOffset = 1;   ///< lanes_ + 1
constexpr unsigned kCounterLaneOffset = 2;

} // namespace

PerfettoSink::PerfettoSink(unsigned lanes, uint64_t max_events)
    : lanes_(lanes ? lanes : 1), maxEvents_(max_events)
{
}

bool
PerfettoSink::admit()
{
    if (events_ >= maxEvents_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
PerfettoSink::append(std::string event)
{
    if (!body_.empty())
        body_ += ",\n";
    body_ += event;
    ++events_;
}

void
PerfettoSink::onRunBegin(const sim::MachineConfig &mc)
{
    if (headerDone_)
        return;
    headerDone_ = true;
    append(strprintf("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                     "\"args\":{\"name\":\"bp5-sim (fxu=%u btac=%s)\"}}",
                     mc.numFXU, mc.btacEnabled ? "on" : "off"));
    for (unsigned l = 0; l < lanes_; ++l)
        append(strprintf("{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                         "\"name\":\"thread_name\","
                         "\"args\":{\"name\":\"pipe-%u\"}}",
                         l, l));
    append(strprintf("{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                     "\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"flushes\"}}",
                     lanes_ + kFlushLaneOffset));
    append(strprintf("{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                     "\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"cache-misses\"}}",
                     lanes_ + kMissLaneOffset));
}

void
PerfettoSink::onRunEnd(const sim::Counters &final)
{
    // Counter tracks get one point per run boundary: cheap, and a
    // KernelMachine experiment produces one point per invocation.
    if (admit())
        append(strprintf(
            "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%llu,"
            "\"name\":\"run counters\",\"args\":{\"ipc\":%.4f,"
            "\"mispredict_rate\":%.4f,\"l1d_miss_rate\":%.4f}}",
            lanes_ + kCounterLaneOffset,
            (unsigned long long)global(final.cycles), final.ipc(),
            final.branchMispredictRate(), final.l1dMissRate()));
    // CPI-stack counter track: one stacked point per run boundary,
    // each component as cycles-per-instruction so runs of different
    // lengths chart comparably.
    if (admit()) {
        std::string args;
        for (size_t i = 0; i < final.cpi.size(); ++i) {
            if (!args.empty())
                args += ',';
            double cpi = final.instructions
                             ? double(final.cpi[i]) /
                                   double(final.instructions)
                             : 0.0;
            args += strprintf("\"%s\":%.4f",
                              sim::cpiComponentKey(sim::CpiComponent(i)),
                              cpi);
        }
        append(strprintf("{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%llu,"
                         "\"name\":\"cpi stack\",\"args\":{%s}}",
                         lanes_ + kCounterLaneOffset,
                         (unsigned long long)global(final.cycles),
                         args.c_str()));
    }
    RebasingSink::onRunEnd(final);
}

void
PerfettoSink::onInstruction(const sim::InstRecord &r, const sim::Counters &)
{
    // LSQ-occupancy counter track: one point per memory op, emitted
    // only when the machine models finite queues (classic-mode records
    // carry zero occupancy and produce no track).
    if ((r.isLoad || r.isStore) && (r.lsqLoadOcc || r.lsqStoreOcc) &&
        admit()) {
        append(strprintf(
            "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%llu,"
            "\"name\":\"lsq occupancy\",\"args\":{\"loads\":%u,"
            "\"stores\":%u}}",
            lanes_ + kCounterLaneOffset,
            (unsigned long long)global(r.dispatchCycle), r.lsqLoadOcc,
            r.lsqStoreOcc));
    }
    if (!admit())
        return;
    uint64_t ts = global(r.fetchCycle);
    uint64_t end = global(r.commitCycle);
    uint64_t dur = end > ts ? end - ts : 1;
    std::string name = support::jsonEscape(isa::disassemble(r.inst, r.pc));
    append(strprintf(
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%llu,\"dur\":%llu,"
        "\"cat\":\"inst\",\"name\":%s,\"args\":{\"pc\":\"0x%llx\","
        "\"seq\":%llu,\"dispatch\":%llu,\"issue\":%llu,"
        "\"writeback\":%llu,\"stall\":\"%s\"%s%s%s%s%s}}",
        (unsigned long long)(r.seq % lanes_), (unsigned long long)ts,
        (unsigned long long)dur, name.c_str(), (unsigned long long)r.pc,
        (unsigned long long)r.seq,
        (unsigned long long)global(r.dispatchCycle),
        (unsigned long long)global(r.issueCycle),
        (unsigned long long)global(r.writebackCycle),
        sim::stallReasonKey(r.stall),
        r.mispredicted ? ",\"mispredicted\":true" : "",
        r.l1dMiss ? ",\"l1d_miss\":true" : "",
        r.l2Miss ? ",\"l2_miss\":true" : "",
        r.forwarded ? ",\"forwarded\":true" : "",
        r.disambigFlush ? ",\"disambig_flush\":true" : ""));
}

void
PerfettoSink::onFlush(const sim::FlushRecord &r)
{
    if (!admit())
        return;
    append(strprintf(
        "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%llu,\"s\":\"t\","
        "\"cat\":\"flush\",\"name\":\"flush (%s)\","
        "\"args\":{\"pc\":\"0x%llx\",\"refetch\":%llu}}",
        lanes_ + kFlushLaneOffset,
        (unsigned long long)global(r.resolveCycle), flushCauseName(r.cause),
        (unsigned long long)r.pc, (unsigned long long)global(r.refetchCycle)));
}

void
PerfettoSink::onCacheMiss(const sim::CacheMissRecord &r)
{
    if (!admit())
        return;
    append(strprintf(
        "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%llu,\"s\":\"t\","
        "\"cat\":\"mem\",\"name\":\"%s\","
        "\"args\":{\"pc\":\"0x%llx\",\"addr\":\"0x%llx\"}}",
        lanes_ + kMissLaneOffset, (unsigned long long)global(r.cycle),
        missLevelName(r.level), (unsigned long long)r.pc,
        (unsigned long long)r.addr));
}

std::string
PerfettoSink::finish() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out += body_;
    // No silent truncation: if the event cap dropped anything, the
    // document's last event says how much is missing.
    if (dropped_ > 0) {
        out += strprintf(",\n{\"ph\":\"M\",\"pid\":1,"
                         "\"name\":\"dropped_events\","
                         "\"args\":{\"count\":%llu,\"cap\":%llu}}",
                         (unsigned long long)dropped_,
                         (unsigned long long)maxEvents_);
    }
    out += "\n]}\n";
    return out;
}

bool
PerfettoSink::writeTo(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open %s for writing", path.c_str());
        return false;
    }
    if (dropped_ > 0)
        warn("perfetto trace %s truncated: %llu event(s) dropped past "
             "the %llu-event cap",
             path.c_str(), (unsigned long long)dropped_,
             (unsigned long long)maxEvents_);
    std::string doc = finish();
    size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (n != doc.size()) {
        warn("short write to %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace bp5::obs
