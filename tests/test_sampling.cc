/**
 * @file
 * Tests of SMARTS-style sampled timing (sim::SamplingParams): the
 * exactness contract (architectural counters identical to a full
 * detailed run; only cycle/event counters are extrapolated), error
 * bounds of the extrapolation, functional warming training the
 * predictor, BTAC and L1D as a timed run would, and reset() clearing
 * the sampling mode.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "sim/machine.h"
#include "workloads/workload.h"

using namespace bp5;

namespace {

/// ~180k dynamic instructions with data-dependent branches and memory
/// traffic: enough work that sampled windows see the steady state.
const char *kLoopSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r15, 1234
        li      r12, 16384
        mtctr   r12
loop:
        mulli   r15, r15, 25
        addi    r15, r15, 13
        srdi    r16, r15, 7
        andi.   r17, r15, 63
        std     r15, 0(r13)
        ld      r18, 0(r13)
        cmpdi   r17, 32
        blt     skip
        add     r14, r14, r18
skip:
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

sim::RunResult
runLoop(const sim::SamplingParams &p,
        const sim::MachineConfig &cfg = sim::MachineConfig())
{
    masm::Program prog = masm::assemble(kLoopSrc);
    sim::Machine m(cfg);
    m.setSampling(p);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    return m.run();
}

/// Strip the extrapolated event counters (the Extrapolated rows of
/// the counter schema, stallCycles and cpi), keeping the architectural
/// ones the sampling contract promises to report exactly.
sim::Counters
archOnly(sim::Counters c)
{
    for (const sim::CounterField &f : sim::kCounterFields) {
        if (f.sampled == sim::SampledRule::Extrapolated)
            c.*f.member = 0;
    }
    c.stallCycles.fill(0);
    c.cpi.fill(0);
    return c;
}

TEST(Sampling, ArchCountersExactEventCountersClose)
{
    sim::RunResult full = runLoop(sim::SamplingParams{});
    sim::RunResult sampled = runLoop({2'000, 18'000, true});

    ASSERT_TRUE(full.halted);
    ASSERT_TRUE(sampled.halted);
    EXPECT_FALSE(full.sampled);
    EXPECT_TRUE(sampled.sampled);
    EXPECT_EQ(sampled.exitCode, full.exitCode);

    // The architectural side is exact, including the dynamic op mix
    // and the reconstructed cache access counts.
    EXPECT_EQ(archOnly(sampled.counters), archOnly(full.counters));
    EXPECT_EQ(sampled.counters.l1iAccesses, sampled.counters.instructions);
    EXPECT_EQ(sampled.counters.l1dAccesses,
              sampled.counters.loads + sampled.counters.stores);

    // Measurement bookkeeping adds up.
    const auto &st = sampled.sampling;
    EXPECT_GT(st.windows, 1u);
    EXPECT_EQ(st.detailedInstructions + st.fastForwardedInstructions,
              sampled.counters.instructions);
    EXPECT_GT(st.detailedCycles, 0u);
    EXPECT_LT(st.detailedInstructions, sampled.counters.instructions / 2);

    // Extrapolated IPC and mispredict rate track the full run.
    double ipcErr = std::fabs(sampled.counters.ipc() - full.counters.ipc()) /
                    full.counters.ipc();
    EXPECT_LT(ipcErr, 0.15) << "sampled " << sampled.counters.ipc()
                            << " vs full " << full.counters.ipc();
    double fullRate = double(full.counters.mispredDirection) /
                      double(full.counters.instructions);
    double sampRate = double(sampled.counters.mispredDirection) /
                      double(sampled.counters.instructions);
    EXPECT_LT(std::fabs(sampRate - fullRate), 0.01)
        << "sampled " << sampRate << " vs full " << fullRate;
}

TEST(Sampling, DisabledParamsAreBitExact)
{
    // Zeroed params (enabled() == false) must take the plain full-
    // detail path, bit-for-bit.
    sim::RunResult a = runLoop(sim::SamplingParams{});
    sim::RunResult b = runLoop({0, 0, true});
    sim::RunResult c = runLoop({5'000, 0, true}); // skip=0: disabled
    EXPECT_FALSE(b.sampled);
    EXPECT_FALSE(c.sampled);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.counters, c.counters);
}

TEST(Sampling, WorksWithBtacConfig)
{
    sim::MachineConfig cfg = sim::MachineConfig::power5WithBtac();
    sim::RunResult full = runLoop(sim::SamplingParams{}, cfg);
    sim::RunResult sampled = runLoop({2'000, 18'000, true}, cfg);
    EXPECT_EQ(archOnly(sampled.counters), archOnly(full.counters));
    double ipcErr = std::fabs(sampled.counters.ipc() - full.counters.ipc()) /
                    full.counters.ipc();
    EXPECT_LT(ipcErr, 0.15);
}

/// A 200-iteration bdnz loop (longer than a 300-instruction window),
/// then 16k iterations of a loop with a data-dependent blt, an
/// unconditional b, and a store/load pair that walks 8 cache lines at
/// 0x500000.  The whole text is one cache line.
const char *kWarmSrc = R"(
        li      r12, 200
        mtctr   r12
spin:
        addi    r14, r14, 1
        bdnz    spin
        addis   r13, r0, 0x50
        li      r14, 0
        li      r15, 1234
        li      r20, 0
        li      r12, 16384
        mtctr   r12
loop:
        mulli   r15, r15, 25
        addi    r15, r15, 13
        andi.   r17, r15, 63
        add     r19, r13, r20
        std     r15, 0(r19)
        ld      r18, 0(r19)
        addi    r20, r20, 128
        andi.   r20, r20, 1023
        cmpdi   r17, 32
        blt     skip
        add     r14, r14, r18
        b       next
skip:
        addi    r14, r14, 1
next:
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

/// The event counts a timed run takes from the trained structures:
/// direction predictor, BTAC and L1D (and the L2 behind it).
std::array<uint64_t, 8>
trainedCounts(const sim::Counters &c)
{
    return {c.mispredDirection, c.mispredTarget,  c.takenBubbles,
            c.btacPredictions,  c.btacCorrect,    c.btacMispredicts,
            c.l1dMisses,        c.l2Misses};
}

/// Run kWarmSrc for 20300 instructions under @p prefix, then 5000 more
/// with full timing; returns the second run's counters.
sim::Counters
countsAfterPrefix(const sim::MachineConfig &cfg,
                  const sim::SamplingParams &prefix)
{
    masm::Program prog = masm::assemble(kWarmSrc);
    sim::Machine m(cfg);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    m.setSampling(prefix);
    EXPECT_FALSE(m.run(20'300).halted);
    m.setSampling(sim::SamplingParams{});
    return m.run(5'000).counters;
}

/**
 * Functional warming trains exactly what a timed run trains: after a
 * 300-instruction window and a 20000-instruction warmed fast-forward,
 * the predictor, BTAC and caches make a following timed run count the
 * same events as after 20300 timed instructions, for every predictor
 * kind with the BTAC off and on.  Without warming the counts differ.
 */
TEST(Sampling, WarmedFastForwardTrainsLikeTimedRun)
{
    const sim::PredictorKind kinds[] = {
        sim::PredictorKind::AlwaysTaken, sim::PredictorKind::Bimodal,
        sim::PredictorKind::Gshare, sim::PredictorKind::Tournament};
    for (bool btac : {false, true}) {
        for (sim::PredictorKind kind : kinds) {
            sim::MachineConfig cfg;
            cfg.btacEnabled = btac;
            cfg.predictor = kind;
            cfg.l1d = {"L1D", 1024, 2, 128, 1};
            cfg.l2 = {"L2", 4096, 2, 128, 12};
            SCOPED_TRACE("btac=" + std::to_string(btac) + " predictor=" +
                         std::to_string(int(kind)));

            const auto timed =
                trainedCounts(countsAfterPrefix(cfg, sim::SamplingParams{}));
            const auto warmed =
                trainedCounts(countsAfterPrefix(cfg, {300, 20'000, true}));
            const auto cold =
                trainedCounts(countsAfterPrefix(cfg, {300, 20'000, false}));
            EXPECT_EQ(warmed, timed);
            EXPECT_NE(cold, timed);
        }
    }
}

TEST(Sampling, ResetDisablesSampling)
{
    sim::Machine m;
    m.setSampling({1'000, 9'000, true});
    EXPECT_TRUE(m.sampling().enabled());
    m.reset();
    EXPECT_FALSE(m.sampling().enabled());
}

/// KernelMachine pass-through: sampled totals keep architectural
/// counts exact across repeated kernel invocations, and reset()
/// returns the machine to full-detail mode (reset == fresh).
TEST(Sampling, KernelMachineSampledWorkload)
{
    using namespace bp5::kernels;
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Fasta;
    wc.simInstructionBudget = 200'000;
    workloads::Workload w(wc);

    KernelMachine full(workloads::appKernel(wc.app),
                       mpc::Variant::Baseline, sim::MachineConfig());
    w.simulate(full);

    KernelMachine sampled(workloads::appKernel(wc.app),
                          mpc::Variant::Baseline, sim::MachineConfig());
    sampled.setSampling({2'000, 18'000, true});
    w.simulate(sampled);

    EXPECT_EQ(archOnly(sampled.totals()), archOnly(full.totals()));
    EXPECT_GT(sampled.totals().cycles, 0u);
    double ipcErr =
        std::fabs(sampled.totals().ipc() - full.totals().ipc()) /
        full.totals().ipc();
    EXPECT_LT(ipcErr, 0.15);

    // reset() clears sampling: the machine must reproduce the fresh
    // full-detail machine bit-for-bit.
    sampled.reset();
    w.simulate(sampled);
    EXPECT_EQ(sampled.totals(), full.totals());
}

} // namespace
