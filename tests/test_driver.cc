/**
 * @file
 * Tests for the experiment-driver subsystem and the guarantees it
 * leans on: reset-equivalence (a reused machine behaves bit-for-bit
 * like a fresh one), determinism under parallelism (N threads produce
 * byte-identical aggregated results), the run()-vs-runFunctional()
 * architectural equivalence, and the ResultRow emitters.
 */

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "masm/assembler.h"
#include "sim/machine.h"
#include "support/result.h"
#include "workloads/workload.h"

namespace bp5 {
namespace {

using driver::ExperimentDriver;
using driver::GridPoint;
using driver::PointResult;
using support::ResultRow;
using workloads::App;
using workloads::Workload;
using workloads::WorkloadConfig;

WorkloadConfig
cfg(App app, uint64_t budget = 150'000)
{
    WorkloadConfig c;
    c.app = app;
    c.klass = workloads::InputClass::A;
    c.simInstructionBudget = budget;
    return c;
}

/** Field-by-field equality of every counter; failures name the field. */
void
expectCountersEqual(const sim::Counters &a, const sim::Counters &b,
                    const std::string &what)
{
    for (const sim::CounterField &f : sim::kCounterFields)
        EXPECT_EQ(a.*f.member, b.*f.member) << what << ": " << f.key;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what << ": stall_cycles";
    EXPECT_EQ(a.cpi, b.cpi) << what << ": cpi";
    EXPECT_EQ(a.opCount, b.opCount) << what << ": op_count";
}

// ------------------------------------------------- reset equivalence

/**
 * The bedrock of machine reuse: run(); reset(); run() must produce
 * counters identical to a fresh machine's run, for every workload.
 */
TEST(ResetEquivalence, ResetMachineMatchesFreshMachine)
{
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        App app = static_cast<App>(a);
        Workload w(cfg(app));
        sim::MachineConfig mc = sim::MachineConfig::power5WithBtac();
        kernels::KernelKind kind = workloads::appKernel(app);

        kernels::KernelMachine reused(kind, mpc::Variant::Baseline, mc);
        workloads::SimResult first = w.simulate(reused);
        reused.reset();
        workloads::SimResult again = w.simulate(reused);

        kernels::KernelMachine fresh(kind, mpc::Variant::Baseline, mc);
        workloads::SimResult ref = w.simulate(fresh);

        expectCountersEqual(again.counters, ref.counters,
                            std::string("reset vs fresh: ") +
                                workloads::appName(app));
        expectCountersEqual(first.counters, ref.counters,
                            std::string("first vs fresh: ") +
                                workloads::appName(app));
        EXPECT_EQ(again.invocations, ref.invocations);
    }
}

TEST(ResetEquivalence, CacheStatsResetToo)
{
    Workload w(cfg(App::Fasta));
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline,
                              sim::MachineConfig());
    (void)w.simulate(km);
    km.reset();
    EXPECT_EQ(km.machine().l1d().stats().accesses, 0u);
    EXPECT_EQ(km.machine().l2().stats().accesses, 0u);
    EXPECT_EQ(km.totals().instructions, 0u);
}

/**
 * Decoded micro-ops survive reset() but must not outlive their code:
 * the program executes `li r3, 1`, then stores the word of `li r3, 2`
 * over it.  The rerun after reset() starts from memory holding the new
 * word and must run it exactly as a fresh machine with that memory.
 */
TEST(ResetEquivalence, RewrittenCodeIsRedecodedAfterReset)
{
    const char *src = R"(
        addis   r4, r0, 1
        li      r3, 1
        lwz     r5, 24(r4)
        stw     r5, 4(r4)
        li      r0, 0
        sc
        li      r3, 2
)";
    masm::Program prog = masm::assemble(src);
    ASSERT_EQ(prog.base, 0x10000u); // addis r4, r0, 1 materialises it
    sim::MachineConfig mc;

    sim::Machine reused(mc);
    reused.loadProgram(prog);
    reused.state().pc = prog.base;
    sim::RunResult first = reused.run();
    ASSERT_TRUE(first.halted);
    EXPECT_EQ(first.exitCode, 1);
    reused.reset();
    reused.state().pc = prog.base;
    sim::RunResult again = reused.run();

    sim::Machine fresh(mc);
    fresh.loadProgram(prog);
    fresh.mem().writeU32(prog.base + 4, reused.mem().readU32(prog.base + 4));
    fresh.state().pc = prog.base;
    sim::RunResult ref = fresh.run();

    ASSERT_TRUE(ref.halted);
    EXPECT_EQ(ref.exitCode, 2);
    EXPECT_EQ(again.exitCode, ref.exitCode);
    EXPECT_EQ(again.console, ref.console);
    expectCountersEqual(again.counters, ref.counters, "rewritten code");
    EXPECT_TRUE(again.counters == ref.counters);
}

// ---------------------------------------- determinism under threads

std::string
countersFingerprint(const std::vector<PointResult> &results)
{
    std::vector<ResultRow> rows;
    for (const PointResult &r : results) {
        const sim::Counters &c = r.sim.counters;
        ResultRow row;
        row.set("label", r.label)
            .set("cycles", c.cycles)
            .set("instructions", c.instructions)
            .set("branches", c.branches)
            .set("mispredDirection", c.mispredDirection)
            .set("takenBubbles", c.takenBubbles)
            .set("l1dMisses", c.l1dMisses)
            .set("l2Misses", c.l2Misses)
            .set("stores", c.stores);
        rows.push_back(row);
    }
    return support::emitJsonLine(rows, "");
}

/**
 * The ISSUE's 8-point grid (4 apps x 2 machine configs), plus four
 * duplicated points so worker-local machine reuse is exercised, run
 * with one thread and with four: aggregated results must be
 * byte-identical.
 */
TEST(ExperimentDriver, ParallelResultsIdenticalToSerial)
{
    std::vector<GridPoint> grid;
    for (int a = 0; a < 4; ++a) {
        GridPoint p;
        p.label = std::string(workloads::appName(static_cast<App>(a))) +
                  "/base";
        p.workload = cfg(static_cast<App>(a));
        grid.push_back(p);

        GridPoint q = p;
        q.label = std::string(workloads::appName(static_cast<App>(a))) +
                  "/btac";
        q.machine = sim::MachineConfig::power5WithBtac();
        grid.push_back(q);
    }
    // Duplicates of the first two apps' base points: same (kernel,
    // variant, config) key, so a worker that claims both recycles one
    // machine via reset().
    grid.push_back(grid[0]);
    grid.push_back(grid[2]);

    ExperimentDriver serial(1);
    ExperimentDriver parallel(4);
    EXPECT_EQ(serial.threads(), 1u);
    EXPECT_EQ(parallel.threads(), 4u);

    std::vector<PointResult> r1 = serial.run(grid);
    std::vector<PointResult> rN = parallel.run(grid);
    ASSERT_EQ(r1.size(), grid.size());
    ASSERT_EQ(rN.size(), grid.size());

    EXPECT_EQ(countersFingerprint(r1), countersFingerprint(rN));
    for (size_t i = 0; i < grid.size(); ++i) {
        expectCountersEqual(r1[i].sim.counters, rN[i].sim.counters,
                            "point " + std::to_string(i));
    }
    // The duplicated points must reproduce their originals exactly —
    // machine reuse is invisible in the results.
    expectCountersEqual(rN[8].sim.counters, rN[0].sim.counters,
                        "duplicate of point 0");
    expectCountersEqual(rN[9].sim.counters, rN[2].sim.counters,
                        "duplicate of point 2");
}

TEST(ExperimentDriver, EmptyGridAndLabels)
{
    ExperimentDriver d(2);
    EXPECT_TRUE(d.run({}).empty());

    GridPoint p;
    p.label = "only";
    p.workload = cfg(App::Clustalw);
    std::vector<PointResult> r = d.run({p});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].label, "only");
    EXPECT_GT(r[0].sim.counters.instructions, 0u);
}

// -------------------------------- run vs runFunctional equivalence

/**
 * The timing model must not change what executes: the functional-only
 * path and the full timing path retire the identical instruction
 * stream for every workload (and both validate kernel results against
 * the native references internally).
 */
TEST(ArchitecturalEquivalence, RunMatchesRunFunctional)
{
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        App app = static_cast<App>(a);
        Workload w(cfg(app));
        kernels::KernelKind kind = workloads::appKernel(app);

        kernels::KernelMachine timed(kind, mpc::Variant::Baseline,
                                     sim::MachineConfig());
        workloads::SimResult rt = w.simulate(timed);

        kernels::KernelMachine func(kind, mpc::Variant::Baseline,
                                    sim::MachineConfig());
        func.setFunctionalOnly(true);
        workloads::SimResult rf = w.simulate(func);

        const sim::Counters &t = rt.counters;
        const sim::Counters &f = rf.counters;
        std::string what = workloads::appName(app);
        EXPECT_EQ(t.instructions, f.instructions) << what;
        EXPECT_EQ(t.branches, f.branches) << what;
        EXPECT_EQ(t.condBranches, f.condBranches) << what;
        EXPECT_EQ(t.takenBranches, f.takenBranches) << what;
        EXPECT_EQ(t.loads, f.loads) << what;
        EXPECT_EQ(t.stores, f.stores) << what;
        EXPECT_EQ(t.opCount, f.opCount) << what;
        EXPECT_EQ(rt.invocations, rf.invocations) << what;
        EXPECT_GT(t.cycles, 0u) << what;
        EXPECT_EQ(f.cycles, 0u) << what;
    }
}

// --------------------------------------------------- result emitters

TEST(ResultRowTest, TextTableAlignsUnionOfKeys)
{
    ResultRow r1, r2;
    r1.set("app", "Blast").set("IPC", 1.25).set("only1", uint64_t(7));
    r2.set("app", "Hmmer").set("IPC", 0.5).set("only2", "x");
    std::string text = support::emitText({r1, r2}, "title:");
    EXPECT_NE(text.find("title:"), std::string::npos);
    EXPECT_NE(text.find("app"), std::string::npos);
    EXPECT_NE(text.find("1.25"), std::string::npos);
    // Missing cells render as "-".
    EXPECT_NE(text.find('-'), std::string::npos);
}

TEST(ResultRowTest, JsonIsDeterministicAndTyped)
{
    ResultRow r;
    r.set("name", "a \"quoted\" one")
        .set("ipc", 1.5, 2)
        .set("n", uint64_t(42))
        .setPct("rate", 0.125, 1)
        .setGainPct("gain", -0.034, 1);
    std::string json = support::emitJsonLine({r}, "t");
    EXPECT_EQ(json, "{\"title\": \"t\", \"rows\": [{\"name\": "
                    "\"a \\\"quoted\\\" one\", \"ipc\": 1.50, "
                    "\"n\": 42, \"rate\": 0.12500, "
                    "\"gain\": -0.03400}]}\n");
}

TEST(ResultRowTest, JsonLineIsOneRecordPerTable)
{
    ResultRow r1, r2;
    r1.set("app", "Blast").set("n", uint64_t(1));
    r2.set("app", "Hmmer").set("n", uint64_t(2));
    std::string line = support::emitJsonLine({r1, r2}, "Fig X:");
    EXPECT_EQ(line, "{\"title\": \"Fig X:\", \"rows\": ["
                    "{\"app\": \"Blast\", \"n\": 1}, "
                    "{\"app\": \"Hmmer\", \"n\": 2}]}\n");
    // JSON Lines contract: exactly one newline, at the end.
    EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(ResultRowTest, SetOverwritesInPlace)
{
    ResultRow r;
    r.set("k", uint64_t(1)).set("other", uint64_t(2));
    r.set("k", uint64_t(3));
    EXPECT_EQ(r.cells().size(), 2u);
    EXPECT_EQ(r.cells()[0].text, "3");
    EXPECT_EQ(r.text("missing"), "-");
}

// ------------------------------------------- L2 writeback plumbing

/**
 * Satellite-bug pin: with a deliberately small L1D, a store-heavy
 * kernel run must surface dirty-eviction write traffic at the L2 —
 * every L1D writeback is presented to the next level.
 */
TEST(WritebackAccounting, StoreHeavyKernelDrivesL2WriteTraffic)
{
    sim::MachineConfig mc;
    mc.l1d = sim::CacheParams{"L1D", 2048, 2, 128, 1};
    Workload w(cfg(App::Clustalw, 120'000));
    kernels::KernelMachine km(kernels::KernelKind::ForwardPass,
                              mpc::Variant::Baseline, mc);
    workloads::SimResult r = w.simulate(km);
    EXPECT_GT(r.counters.stores, 0u);

    const sim::CacheStats &l1d = km.machine().l1d().stats();
    const sim::CacheStats &l2 = km.machine().l2().stats();
    EXPECT_GT(l1d.writebacks, 0u);
    EXPECT_GT(l2.writes, 0u);
    EXPECT_GT(l2.writebacksIn, 0u);
    // Every L1D dirty eviction lands at the L2 (the L1I never writes).
    EXPECT_EQ(l2.writebacksIn, l1d.writebacks);
    EXPECT_EQ(l2.writes, l1d.writebacks);
}

} // namespace
} // namespace bp5
