/**
 * @file
 * Observability-layer tests: attaching sinks must never perturb the
 * timing model (bit-identical Counters), the PMU sampler's windows
 * must sum exactly to the end-of-run counters, the per-site profiles
 * must reconcile with the same counters, and the trace writers must
 * produce well-formed documents (Perfetto JSON schema, Konata
 * round-trip).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "bench/bench_util.h"
#include "bio/generator.h"
#include "driver/driver.h"
#include "isa/disasm.h"
#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "obs/cpi_stack.h"
#include "obs/json.h"
#include "obs/konata_sink.h"
#include "obs/manifest.h"
#include "obs/perfetto_sink.h"
#include "obs/pmu_sampler.h"
#include "obs/site_profile.h"
#include "obs/trace_mux.h"
#include "serve/job.h"
#include "sim/machine.h"

namespace bp5 {
namespace {

/** A counted loop whose body is repeated independent adds. */
std::string
addLoop(int iters, int adds)
{
    std::string s = "li r3, " + std::to_string(iters) + "\nmtctr r3\n";
    s += "loop:\n";
    for (int i = 0; i < adds; ++i)
        s += "add r" + std::to_string(4 + i % 8) + ", r10, r11\n";
    s += "bdnz loop\n";
    return s;
}

masm::Program
loopProgram(int iters = 2000, int adds = 4)
{
    return masm::assemble(addLoop(iters, adds) + "li r0,0\nsc\n", 0x10000);
}

sim::RunResult
runWithSink(const masm::Program &p, sim::TraceSink *sink)
{
    sim::Machine m;
    m.loadProgram(p);
    m.state().pc = p.base;
    m.setTraceSink(sink);
    sim::RunResult r = m.run(10'000'000);
    EXPECT_TRUE(r.halted);
    return r;
}

/** Sink that counts every hook invocation. */
struct CountingSink final : sim::TraceSink
{
    unsigned runBegins = 0, runEnds = 0;
    uint64_t insts = 0, branches = 0, flushes = 0, misses = 0;

    void onRunBegin(const sim::MachineConfig &) override { ++runBegins; }
    void onRunEnd(const sim::Counters &) override { ++runEnds; }
    void
    onInstruction(const sim::InstRecord &, const sim::Counters &) override
    {
        ++insts;
    }
    void onBranch(const sim::BranchRecord &) override { ++branches; }
    void onFlush(const sim::FlushRecord &) override { ++flushes; }
    void onCacheMiss(const sim::CacheMissRecord &) override { ++misses; }
};

// ---------------------------------------------------------------------
// Tracing-off invariance.
// ---------------------------------------------------------------------

TEST(ObsInvariance, NullSinkRunIsBitIdentical)
{
    masm::Program p = loopProgram();
    sim::RunResult plain = runWithSink(p, nullptr);

    sim::TraceSink null; // every hook is a no-op
    sim::RunResult traced = runWithSink(p, &null);

    EXPECT_TRUE(plain.counters == traced.counters);
    EXPECT_EQ(plain.exitCode, traced.exitCode);
}

TEST(ObsInvariance, FullSinkStackIsBitIdentical)
{
    masm::Program p = loopProgram();
    sim::RunResult plain = runWithSink(p, nullptr);

    obs::PerfettoSink perfetto;
    obs::KonataSink konata;
    obs::PmuSampler sampler(500);
    obs::SiteProfileSink sites;
    obs::TraceMux mux;
    mux.add(&perfetto);
    mux.add(&konata);
    mux.add(&sampler);
    mux.add(&sites);
    sim::RunResult traced = runWithSink(p, &mux);

    EXPECT_TRUE(plain.counters == traced.counters);
    EXPECT_GT(perfetto.eventCount(), 0u);
    EXPECT_GT(konata.instCount(), 0u);
    EXPECT_FALSE(sites.branches().empty());
}

TEST(ObsInvariance, SampledRunIsBitIdentical)
{
    // SMARTS sampling: sinks see only the detail windows, and must not
    // perturb the extrapolated totals.
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw;
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 200'000;
    workloads::Workload w(wc);
    const sim::SamplingParams smarts{2'000, 18'000, true};

    kernels::KernelMachine plain(workloads::appKernel(wc.app),
                                 mpc::Variant::Baseline,
                                 sim::MachineConfig());
    plain.setSampling(smarts);
    w.simulate(plain);

    kernels::KernelMachine km(workloads::appKernel(wc.app),
                              mpc::Variant::Baseline, sim::MachineConfig());
    km.setSampling(smarts);
    obs::PmuSampler sampler(1000);
    obs::CpiStackSink cpi;
    obs::SiteProfileSink sites;
    obs::TraceMux mux;
    mux.add(&sampler);
    mux.add(&cpi);
    mux.add(&sites);
    km.setTraceSink(&mux);
    w.simulate(km);

    const sim::Counters &c = km.totals();
    EXPECT_TRUE(c == plain.totals());
    ASSERT_GT(c.instructions, 0u);

    // Detail windows only: every site sum is positive and bounded by
    // the (window-extrapolated or exact) machine totals.
    sim::BranchSiteStats b;
    for (const auto &[pc, stats] : sites.branches())
        b.add(stats);
    uint64_t stalls = 0;
    for (const auto &[pc, stats] : sites.stalls())
        stalls += stats.total();
    EXPECT_GT(b.executions, 0u);
    EXPECT_LE(b.executions, c.branches);
    EXPECT_GT(b.taken, 0u);
    EXPECT_LE(b.taken, c.takenBranches);
    EXPECT_GT(b.mispredicts(), 0u);
    EXPECT_LE(b.mispredDirection, c.mispredDirection);
    EXPECT_LE(b.mispredTarget, c.mispredTarget);
    EXPECT_GT(stalls, 0u);
    EXPECT_LE(stalls,
              c.cycles - c.cpi[size_t(sim::CpiComponent::Completing)]);
}

TEST(ObsInvariance, EventCountsMatchCounters)
{
    masm::Program p = loopProgram();
    CountingSink c;
    sim::RunResult r = runWithSink(p, &c);

    EXPECT_EQ(c.runBegins, 1u);
    EXPECT_EQ(c.runEnds, 1u);
    EXPECT_EQ(c.insts, r.counters.instructions);
    EXPECT_EQ(c.branches, r.counters.branches);
    // Every direction/target mispredict flushes the front end.
    EXPECT_EQ(c.flushes,
              r.counters.mispredDirection + r.counters.mispredTarget);
    EXPECT_EQ(c.misses, r.counters.l1iMisses + r.counters.l1dMisses +
                            r.counters.l2Misses);
}

/**
 * Checks the outcome fields of every InstRecord and BranchRecord: the
 * timing model's FastCtx lives for the whole run, so a stale address
 * or direction left by an earlier op must never reach an op that sets
 * neither, and an untaken branch reports no target.
 */
struct OutcomeSink final : sim::TraceSink
{
    uint64_t memOps = 0, taken = 0, staleAddr = 0, staleTaken = 0;
    uint64_t untaken = 0, staleTarget = 0;

    void
    onBranch(const sim::BranchRecord &r) override
    {
        if (r.taken)
            return;
        ++untaken;
        staleTarget += r.target != 0;
    }

    void
    onInstruction(const sim::InstRecord &r, const sim::Counters &) override
    {
        if (r.isLoad || r.isStore)
            ++memOps;
        else if (r.memAddr != 0)
            ++staleAddr;
        if (r.isBranch)
            taken += r.taken;
        else if (r.taken)
            ++staleTaken;
    }
};

TEST(ObsInvariance, NonMemoryAndNonBranchRecordsCarryNoOutcome)
{
    // Memory ops and taken branches are each followed by ALU ops, a
    // not-taken branch and a blr/bctr pair, so every outcome field is
    // left set when the next op that does not write it retires.
    masm::Program p = masm::assemble(R"(
        li r3, 300
        mtctr r3
        li r7, 0x6000
        li r8, 0
loop:
        std r8, 8(r7)
        add r9, r8, r8
        ld r10, 8(r7)
        cmpdi cr1, r10, 1000
        bgt cr1, never
        addi r8, r8, 3
        bl leaf
        xor r11, r9, r10
        bdnz loop
        li r0, 0
        sc
never:
        li r0, 0
        sc
leaf:
        stdx r8, r7, r8
        blr
)",
                                     0x10000);
    OutcomeSink sink;
    sim::RunResult r = runWithSink(p, &sink);
    EXPECT_GT(sink.memOps, 0u);
    EXPECT_EQ(sink.memOps, r.counters.loads + r.counters.stores);
    EXPECT_EQ(sink.taken, r.counters.takenBranches);
    EXPECT_EQ(sink.staleAddr, 0u);
    EXPECT_EQ(sink.staleTaken, 0u);
    EXPECT_GT(sink.untaken, 0u);
    EXPECT_EQ(sink.staleTarget, 0u);

    // The same on a compiled kernel under the LSQ memory system.
    bio::SequenceGenerator g(11);
    bio::Sequence a = g.random(40, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(
        kernels::KernelKind::Dropgsw, mpc::Variant::Baseline,
        sim::MachineConfig::power5WithLsq(16, 16,
                                          sim::PrefetchParams::Kind::Stride));
    OutcomeSink ks;
    km.setTraceSink(&ks);
    km.run(kernels::AlignProblem{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                                 bio::GapPenalty{10, 1}});
    EXPECT_GT(ks.memOps, 0u);
    EXPECT_EQ(ks.memOps, km.totals().loads + km.totals().stores);
    EXPECT_EQ(ks.taken, km.totals().takenBranches);
    EXPECT_EQ(ks.staleAddr, 0u);
    EXPECT_EQ(ks.staleTaken, 0u);
    EXPECT_GT(ks.untaken, 0u);
    EXPECT_EQ(ks.staleTarget, 0u);
}

TEST(ObsInvariance, MuxFansOutToAllSinks)
{
    masm::Program p = loopProgram(200, 2);
    CountingSink a, b;
    obs::TraceMux mux;
    mux.add(&a);
    mux.add(&b);
    runWithSink(p, &mux);
    EXPECT_GT(a.insts, 0u);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.misses, b.misses);
}

// ---------------------------------------------------------------------
// PMU sampler interval math.
// ---------------------------------------------------------------------

TEST(PmuSampler, WindowsSumExactlyToCounters)
{
    masm::Program p = loopProgram();
    obs::PmuSampler sampler(777); // deliberately odd interval
    sim::RunResult r = runWithSink(p, &sampler);

    sim::Counters sum;
    for (const obs::PmuInterval &w : sampler.intervals(true))
        sum.add(w.delta);
    EXPECT_TRUE(sum == r.counters);
}

TEST(PmuSampler, IntervalLargerThanRunYieldsOnePartialWindow)
{
    masm::Program p = loopProgram(50, 2);
    obs::PmuSampler sampler(1'000'000'000);
    sim::RunResult r = runWithSink(p, &sampler);

    EXPECT_TRUE(sampler.intervals(false).empty());
    auto all = sampler.intervals(true);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_TRUE(all[0].partial);
    EXPECT_TRUE(all[0].delta == r.counters);
    EXPECT_EQ(all[0].startCycle, 0u);
    EXPECT_EQ(all[0].endCycle, r.counters.cycles);
}

TEST(PmuSampler, IntervalOfOneCycleIsWellFormed)
{
    masm::Program p = loopProgram(20, 1);
    obs::PmuSampler sampler(1);
    sim::RunResult r = runWithSink(p, &sampler);

    auto all = sampler.intervals(true);
    ASSERT_GT(all.size(), 1u);
    sim::Counters sum;
    uint64_t prevEnd = 0;
    for (size_t i = 0; i < all.size(); ++i) {
        const obs::PmuInterval &w = all[i];
        EXPECT_EQ(w.startCycle, prevEnd);
        // Interior windows are strictly widening; the trailing partial
        // window may be zero-width (instructions that retired in the
        // final cycle after the last boundary crossing).
        if (i + 1 < all.size())
            EXPECT_GT(w.endCycle, w.startCycle);
        else
            EXPECT_GE(w.endCycle, w.startCycle);
        prevEnd = w.endCycle;
        sum.add(w.delta);
    }
    EXPECT_TRUE(sum == r.counters);
}

TEST(PmuSampler, ContinuousAcrossRunsAndSumsToKernelTotals)
{
    bio::SequenceGenerator g(7);
    bio::Sequence a = g.random(40, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline, sim::MachineConfig());
    obs::PmuSampler sampler(1000);
    km.setTraceSink(&sampler);
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    for (int i = 0; i < 5; ++i)
        km.run(p);

    sim::Counters sum;
    uint64_t prevEnd = 0;
    for (const obs::PmuInterval &w : sampler.intervals(true)) {
        EXPECT_EQ(w.startCycle, prevEnd); // one continuous cycle axis
        prevEnd = w.endCycle;
        sum.add(w.delta);
    }
    EXPECT_TRUE(sum == km.totals());
    EXPECT_EQ(prevEnd, km.totals().cycles);

    // The Fig-2 view exposes the same (complete) windows.
    EXPECT_EQ(sampler.timeline().size(), sampler.intervals(false).size());
    EXPECT_GT(sampler.timeline().size(), 2u);
}

TEST(SiteProfileSink, BranchSitesSumToCounters)
{
    bio::SequenceGenerator g(11);
    bio::Sequence a = g.random(30, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(kernels::KernelKind::ForwardPass,
                              mpc::Variant::Baseline, sim::MachineConfig());
    obs::SiteProfileSink sites;
    km.setTraceSink(&sites);
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    km.run(p);
    km.run(p);

    // Full timing: every branch resolution reaches the sink, so the
    // per-site counts reconcile exactly with the machine's counters.
    sim::BranchSiteStats sum;
    for (const auto &[pc, stats] : sites.branches()) {
        EXPECT_GT(stats.executions, 0u);
        sum.add(stats);
    }
    const sim::Counters &c = km.totals();
    EXPECT_GT(sites.branches().size(), 3u);
    EXPECT_EQ(sum.executions, c.branches);
    EXPECT_EQ(sum.taken, c.takenBranches);
    EXPECT_EQ(sum.mispredDirection, c.mispredDirection);
    EXPECT_EQ(sum.mispredTarget, c.mispredTarget);
    EXPECT_GT(sum.mispredicts(), 0u);
}

TEST(PmuSampler, CsvRowsMatchWindowCount)
{
    masm::Program p = loopProgram();
    obs::PmuSampler sampler(500);
    runWithSink(p, &sampler);

    std::string csv = sampler.toCsv(true);
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    // + schema comment + column header
    EXPECT_EQ(lines, sampler.intervals(true).size() + 2);
    EXPECT_EQ(csv.compare(0, 10, "# schema: "), 0);
    EXPECT_NE(csv.find("\nstart_cycle"), std::string::npos);
}

namespace {

/** Split one CSV line into cells (no quoting in our dialect). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    for (char c : line) {
        if (c == ',') {
            cells.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    cells.push_back(cur);
    return cells;
}

} // namespace

TEST(PmuSampler, CsvRoundTripsThroughParser)
{
    masm::Program p = loopProgram();
    obs::PmuSampler sampler(500);
    sim::Counters total = runWithSink(p, &sampler).counters;

    std::string csv = sampler.toCsv(true);
    std::vector<std::string> lines;
    std::string cur;
    for (char c : csv) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    ASSERT_GE(lines.size(), 3u);

    // The schema comment names exactly the columns of the header row.
    ASSERT_EQ(lines[0].compare(0, 10, "# schema: "), 0);
    EXPECT_EQ(lines[0].substr(10), lines[1]);
    EXPECT_EQ(lines[1], obs::PmuSampler::csvColumns());

    std::vector<std::string> cols = splitCsv(lines[1]);
    auto colIndex = [&cols](const std::string &name) {
        for (size_t i = 0; i < cols.size(); ++i)
            if (cols[i] == name)
                return i;
        ADD_FAILURE() << "missing column " << name;
        return size_t(0);
    };

    // Parse every data row and re-sum each raw counter column: the CSV
    // must reproduce the machine's end-of-run counters exactly.
    std::vector<std::pair<std::string, uint64_t>> want;
    for (const sim::CounterField &f : sim::kCounterFields)
        want.emplace_back(f.key, total.*f.member);
    for (size_t i = size_t(sim::StallReason::Frontend);
         i < total.stallCycles.size(); ++i)
        want.emplace_back(std::string("stall_") +
                              sim::stallReasonKey(sim::StallReason(i)),
                          total.stallCycles[i]);
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i)
        want.emplace_back(std::string("cpi_") +
                              sim::cpiComponentKey(sim::CpiComponent(i)),
                          total.cpi[i]);
    std::vector<size_t> wantCols;
    for (const auto &w : want)
        wantCols.push_back(colIndex(w.first));
    std::vector<uint64_t> sums(want.size(), 0);
    for (size_t i = 2; i < lines.size(); ++i) {
        std::vector<std::string> cells = splitCsv(lines[i]);
        ASSERT_EQ(cells.size(), cols.size()) << lines[i];
        for (size_t k = 0; k < want.size(); ++k)
            sums[k] += std::stoull(cells[wantCols[k]]);
    }
    for (size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(sums[k], want[k].second) << want[k].first;
    EXPECT_GT(total.cycles, 0u);
    EXPECT_EQ(total.cpiSum(), total.cycles); // so the cpi_* columns do
}

// ---------------------------------------------------------------------
// The counter schema.
// ---------------------------------------------------------------------

TEST(CounterSchema, KeysAreUnique)
{
    std::set<std::string> keys;
    for (const sim::CounterField &f : sim::kCounterFields)
        EXPECT_TRUE(keys.insert(f.key).second) << "duplicate " << f.key;
}

TEST(CounterSchema, MemberPointersRoundTripThroughAddSubtractAndEquality)
{
    // A distinct value per field, set through the table: any two rows
    // sharing a member, or a field add or subtract skips, shows here.
    sim::Counters a;
    uint64_t next = 1;
    for (const sim::CounterField &f : sim::kCounterFields)
        a.*f.member = next++;
    for (uint64_t &v : a.stallCycles)
        v = next++;
    for (uint64_t &v : a.cpi)
        v = next++;
    for (uint64_t &v : a.opCount)
        v = next++;
    next = 1;
    for (const sim::CounterField &f : sim::kCounterFields)
        EXPECT_EQ(a.*f.member, next++) << f.key;

    sim::Counters sum;
    sum.add(a);
    EXPECT_EQ(sum, a);
    sum.add(a);
    next = 1;
    for (const sim::CounterField &f : sim::kCounterFields)
        EXPECT_EQ(sum.*f.member, 2 * next++) << f.key;
    EXPECT_FALSE(sum == a);
    for (size_t i = 0; i < a.opCount.size(); ++i)
        EXPECT_EQ(sum.opCount[i], 2 * a.opCount[i]);

    sum.subtract(a);
    EXPECT_EQ(sum, a);
    sum.subtract(a);
    EXPECT_EQ(sum, sim::Counters());
}

TEST(CounterSchema, EveryKeyIsAPmuCsvColumn)
{
    std::vector<std::string> cols =
        splitCsv(obs::PmuSampler::csvColumns());
    std::set<std::string> have(cols.begin(), cols.end());
    EXPECT_EQ(have.size(), cols.size()) << "duplicate CSV column";
    for (const sim::CounterField &f : sim::kCounterFields)
        EXPECT_TRUE(have.count(f.key)) << "no CSV column for " << f.key;
}

// ---------------------------------------------------------------------
// Trace writers.
// ---------------------------------------------------------------------

TEST(PerfettoSink, EmitsParseableSchema)
{
    masm::Program p = loopProgram(100, 2);
    obs::PerfettoSink sink;
    runWithSink(p, &sink);

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(sink.finish(), doc, err)) << err;
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->items.size(), 10u);

    size_t slices = 0;
    for (const obs::JsonValue &e : events->items) {
        ASSERT_TRUE(e.isObject());
        const obs::JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        ASSERT_NE(e.find("pid"), nullptr);
        if (ph->str == "X") {
            ++slices;
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            ASSERT_NE(e.find("name"), nullptr);
            const obs::JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            ASSERT_NE(args->find("pc"), nullptr);
        }
    }
    EXPECT_GT(slices, 0u);
}

TEST(PerfettoSink, RespectsEventCap)
{
    masm::Program p = loopProgram(2000, 4);
    obs::PerfettoSink sink(8, 100);
    runWithSink(p, &sink);
    EXPECT_EQ(sink.eventCount(), 100u);
    EXPECT_GT(sink.droppedEvents(), 0u);

    obs::JsonValue doc;
    std::string err;
    EXPECT_TRUE(obs::parseJson(sink.finish(), doc, err)) << err;
}

TEST(PerfettoSink, SliceNamesAreTheDisassembly)
{
    // A slice name is disassembly text, so it carries no control
    // bytes; check that its quoting and escaping parse back exactly.
    masm::Program p = loopProgram(10, 2);
    obs::PerfettoSink sink;
    runWithSink(p, &sink);
    sim::Machine m;
    m.loadProgram(p);

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(sink.finish(), doc, err)) << err;
    size_t slices = 0;
    for (const obs::JsonValue &e : doc.find("traceEvents")->items) {
        if (e.find("ph")->str != "X")
            continue;
        ++slices;
        uint64_t pc = std::stoull(e.find("args")->find("pc")->str,
                                  nullptr, 16);
        EXPECT_EQ(e.find("name")->str,
                  isa::disassemble(m.mem().readU32(pc), pc));
    }
    EXPECT_GT(slices, 0u);
}

// ---------------------------------------------------------------------
// JSON string escape (support::jsonEscape), shared by every writer.
// ---------------------------------------------------------------------

TEST(JsonEscape, EveryAsciiByteRoundTrips)
{
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c)
        all += static_cast<char>(c);

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(support::jsonEscape(all), doc, err)) << err;
    EXPECT_EQ(doc.str, all);

    support::ResultRow row;
    row.set("s", all);
    ASSERT_TRUE(obs::parseJson(support::emitJsonLine({row}, all), doc, err))
        << err;
    EXPECT_EQ(doc.find("title")->str, all);
    EXPECT_EQ(doc.find("rows")->items.at(0).find("s")->str, all);

    ASSERT_TRUE(obs::parseJson(serve::resultLine(serve::errorResult(7, all)),
                               doc, err))
        << err;
    EXPECT_EQ(doc.find("error")->str, all);
}

TEST(KonataSink, RoundTripsOnSmallKernel)
{
    masm::Program p = loopProgram(50, 2);
    obs::KonataSink sink;
    sim::RunResult r = runWithSink(p, &sink);
    EXPECT_EQ(sink.instCount(), r.counters.instructions);

    std::istringstream in(sink.finish());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "Kanata\t0004");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.compare(0, 3, "C=\t"), 0);

    uint64_t inserts = 0, retires = 0, labels = 0, stages = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        switch (line[0]) {
        case 'I': ++inserts; break;
        case 'R': ++retires; break;
        case 'L': ++labels; break;
        case 'S': ++stages; break;
        case 'C': {
            // Cycle advances must be positive (monotone time).
            long long delta = std::stoll(line.substr(2));
            EXPECT_GT(delta, 0);
            break;
        }
        default:
            FAIL() << "unexpected Kanata command: " << line;
        }
    }
    EXPECT_EQ(inserts, r.counters.instructions);
    EXPECT_EQ(retires, r.counters.instructions);
    EXPECT_GE(labels, r.counters.instructions);
    EXPECT_EQ(stages, 4 * r.counters.instructions); // F, D, X, W
}

// ---------------------------------------------------------------------
// Manifests.
// ---------------------------------------------------------------------

TEST(Manifest, RowCarriesIdentityMachineAndSpeed)
{
    obs::RunInfo info;
    info.tool = "test";
    info.workload = "dropgsw";
    info.variant = "Original";
    info.input = "canned";
    info.invocations = 3;
    info.wallSeconds = 2.0;
    info.machine = sim::MachineConfig::power5WithBtac();
    info.counters.instructions = 4'000'000;
    info.counters.cycles = 5'000'000;

    support::ResultRow row = obs::manifestRow(info);
    EXPECT_EQ(row.text("tool"), "test");
    EXPECT_EQ(row.text("workload"), "dropgsw");
    EXPECT_EQ(row.text("btac"), "on");
    EXPECT_EQ(row.text("sim_mips"), "2.00"); // 4M insts / 2s
    EXPECT_EQ(row.text("instructions"), "4000000");
}

TEST(Manifest, AppendsParseableJsonLines)
{
    std::string path =
        testing::TempDir() + "/bp5_manifest_test.jsonl";
    std::remove(path.c_str());

    obs::RunInfo info;
    info.tool = "test";
    info.workload = "w";
    info.counters.instructions = 10;
    info.counters.cycles = 20;
    std::vector<support::ResultRow> rows{obs::manifestRow(info)};
    ASSERT_TRUE(obs::appendManifest(path, rows));
    ASSERT_TRUE(obs::appendManifest(path, rows)); // append, not truncate

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    unsigned records = 0;
    while (std::getline(in, line)) {
        obs::JsonValue doc;
        std::string err;
        ASSERT_TRUE(obs::parseJson(line, doc, err)) << err;
        const obs::JsonValue *title = doc.find("title");
        ASSERT_NE(title, nullptr);
        EXPECT_EQ(title->str, "run-manifest");
        ASSERT_NE(doc.find("rows"), nullptr);
        ++records;
    }
    EXPECT_EQ(records, 2u);
    std::remove(path.c_str());
}

TEST(Manifest, DriverEmitsSweepAndPointRows)
{
    std::string path = testing::TempDir() + "/bp5_driver_manifest.jsonl";
    std::remove(path.c_str());

    driver::ExperimentDriver d(1);
    d.setManifestPath(path);
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw;
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 100'000;
    driver::GridPoint p;
    p.label = "pt";
    p.workload = wc;
    std::vector<driver::PointResult> res = d.run({p, p});

    ASSERT_EQ(res.size(), 2u);
    EXPECT_GT(res[0].wallSeconds, 0.0);
    ASSERT_EQ(d.manifest().size(), 3u); // sweep row + 2 points
    EXPECT_EQ(d.manifest()[0].text("kind"), "sweep");
    EXPECT_EQ(d.manifest()[1].text("kind"), "point");
    EXPECT_EQ(d.manifest()[1].text("workload"), "Clustalw");
    EXPECT_EQ(d.manifest()[1].text("label"), "pt");

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(line, doc, err)) << err;
    EXPECT_EQ(doc.find("rows")->items.size(), 3u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Satellites: sparkline guard, JSON parser edge cases.
// ---------------------------------------------------------------------

TEST(Sparkline, FlatSeriesDoesNotDivideByZero)
{
    std::vector<double> flat(8, 1.0);
    std::string s = bench::sparkline(flat, 1.0, 1.0); // hi == lo
    ASSERT_EQ(s.size(), flat.size());
    for (char c : s)
        EXPECT_EQ(c, ' '); // lowest glyph, not NaN-indexed garbage
    // Inverted range behaves the same way.
    EXPECT_EQ(bench::sparkline(flat, 2.0, 1.0), s);
    // A real range still spreads.
    std::string ramp = bench::sparkline({0.0, 0.5, 1.0}, 0.0, 1.0);
    EXPECT_NE(ramp[0], ramp[2]);
}

TEST(Json, ParsesScalarsArraysObjects)
{
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parseJson(
        "{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": true, "
        "\"d\": null}",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.fields.size(), 4u);
    const obs::JsonValue *a = v.find("a");
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_DOUBLE_EQ(a->items[1].number, 2.5);
    EXPECT_DOUBLE_EQ(a->items[2].number, -3.0);
    EXPECT_EQ(v.find("b")->str, "x\ny");
    EXPECT_TRUE(v.find("c")->boolean);
    EXPECT_TRUE(v.find("d")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    obs::JsonValue v;
    std::string err;
    EXPECT_FALSE(obs::parseJson("{\"a\": }", v, err));
    EXPECT_FALSE(obs::parseJson("[1, 2", v, err));
    EXPECT_FALSE(obs::parseJson("{} trailing", v, err));
    EXPECT_FALSE(obs::parseJson("\"unterminated", v, err));
    EXPECT_FALSE(obs::parseJson("", v, err));
    EXPECT_FALSE(err.empty());
}

TEST(Json, NumberGrammarAcceptsRfc8259Forms)
{
    obs::JsonValue v;
    std::string err;

    ASSERT_TRUE(obs::parseJson("1e-3", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 1e-3);
    ASSERT_TRUE(obs::parseJson("2.5E+2", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 250.0);
    ASSERT_TRUE(obs::parseJson("-1.25e1", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, -12.5);
    ASSERT_TRUE(obs::parseJson("0.5", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 0.5);
    ASSERT_TRUE(obs::parseJson("0e0", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 0.0);

    // Negative zero survives the round trip (IEEE sign bit kept).
    ASSERT_TRUE(obs::parseJson("-0", v, err)) << err;
    EXPECT_EQ(v.number, 0.0);
    EXPECT_TRUE(std::signbit(v.number));
    ASSERT_TRUE(obs::parseJson("-0.0", v, err)) << err;
    EXPECT_TRUE(std::signbit(v.number));
}

TEST(Json, NumberGrammarRejectsNonRfc8259Forms)
{
    obs::JsonValue v;
    std::string err;
    // RFC 8259: no leading '+', no bare '.', no leading zeros, and an
    // exponent marker must be followed by at least one digit.
    EXPECT_FALSE(obs::parseJson("+1", v, err));
    EXPECT_FALSE(obs::parseJson(".5", v, err));
    EXPECT_FALSE(obs::parseJson("5.", v, err));
    EXPECT_FALSE(obs::parseJson("01", v, err));
    EXPECT_FALSE(obs::parseJson("-01", v, err));
    EXPECT_FALSE(obs::parseJson("1e", v, err));
    EXPECT_FALSE(obs::parseJson("1e+", v, err));
    EXPECT_FALSE(obs::parseJson("1.e3", v, err));
    EXPECT_FALSE(obs::parseJson("-", v, err));
    EXPECT_FALSE(obs::parseJson("--1", v, err));
    // ...and none of these may sneak through inside a container.
    EXPECT_FALSE(obs::parseJson("[01]", v, err));
    EXPECT_FALSE(obs::parseJson("{\"k\": 1e}", v, err));
}

// ---------------------------------------------------------------------
// KernelMachine wiring.
// ---------------------------------------------------------------------

TEST(KernelMachineObs, ResetDetachesSink)
{
    bio::SequenceGenerator g(3);
    bio::Sequence a = g.random(20, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline, sim::MachineConfig());
    CountingSink c;
    km.setTraceSink(&c);
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    km.run(p);
    EXPECT_GT(c.insts, 0u);

    km.reset();
    uint64_t before = c.insts;
    km.run(p);
    EXPECT_EQ(c.insts, before); // detached sink no longer fed
}

} // namespace
} // namespace bp5
