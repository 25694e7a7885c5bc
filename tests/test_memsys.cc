/**
 * @file
 * MemorySystem (lsq mode) tests: load/store queue unit behaviour
 * (reservation back-pressure, store-to-load forwarding, speculative
 * disambiguation and the memory-dependence predictor), prefetch
 * engines, and the machine-level guarantees in lsq mode — exact CPI
 * stacks, traced == untraced, reset() == fresh, sampled architectural
 * exactness — plus the acceptance shape: the LSQ with forwarding and
 * a stride prefetcher beats the classic memory path on a DP kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "masm/assembler.h"
#include "obs/cpi_stack.h"
#include "obs/pmu_sampler.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace bp5 {
namespace {

// ---------------------------------------------------------------------
// Microbenchmark programs.
// ---------------------------------------------------------------------

/// Store immediately reloaded every iteration: the load's address
/// operand (r13) is loop-invariant while the store's data (r14) is a
/// fresh result, so a speculative load races ahead of the store once,
/// violates, trains the dependence predictor, and forwards thereafter.
const char *kForwardLoopSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r12, 2048
        mtctr   r12
loop:
        addi    r14, r14, 3
        std     r14, 0(r13)
        ld      r15, 0(r13)
        add     r14, r14, r15
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

/// Pointer-chase-free streaming loads, one cache line per iteration
/// over a 64 KiB window (2x the L1D): steady misses with a perfectly
/// constant stride, the stride prefetcher's best case.
const char *kStreamLoopSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r12, 512
        mtctr   r12
loop:
        ld      r15, 0(r13)
        add     r14, r14, r15
        addi    r13, r13, 128
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

/// Wide burst of independent memory ops per iteration: overwhelms a
/// small queue and exposes LSQ-full dispatch stalls on both sides.
const char *kBurstLoopSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r12, 512
        mtctr   r12
loop:
        ld      r15, 0(r13)
        ld      r16, 8(r13)
        std     r14, 16(r13)
        std     r14, 24(r13)
        std     r14, 32(r13)
        std     r14, 40(r13)
        std     r14, 48(r13)
        std     r14, 56(r13)
        add     r14, r14, r15
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

/// Six independent streaming loads per iteration over a 64 KiB
/// window: the misses hold load-queue entries open long enough that a
/// tiny load queue throttles dispatch.
const char *kLoadBurstSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r12, 512
        mtctr   r12
loop:
        ld      r15, 0(r13)
        ld      r16, 8(r13)
        ld      r17, 16(r13)
        ld      r18, 24(r13)
        ld      r19, 32(r13)
        ld      r20, 40(r13)
        addi    r13, r13, 128
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

sim::RunResult
runSrc(const char *src, const sim::MachineConfig &mc,
       sim::TraceSink *sink = nullptr,
       const sim::SamplingParams &sp = sim::SamplingParams{})
{
    masm::Program prog = masm::assemble(src);
    sim::Machine m(mc);
    m.setSampling(sp);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    m.setTraceSink(sink);
    sim::RunResult r = m.run();
    EXPECT_TRUE(r.halted);
    return r;
}

void
expectExactStack(const sim::Counters &c, const std::string &what)
{
    obs::CpiStack s = obs::CpiStack::fromCounters(c);
    EXPECT_TRUE(s.consistent())
        << what << ": cpi components sum to " << s.sum()
        << " but cycles=" << c.cycles;
}

sim::MachineConfig
lsqConfig(unsigned loads = 16, unsigned stores = 16,
          sim::PrefetchParams::Kind pf = sim::PrefetchParams::Kind::None)
{
    return sim::MachineConfig::power5WithLsq(loads, stores, pf);
}

// ---------------------------------------------------------------------
// Configuration surface.
// ---------------------------------------------------------------------

TEST(MemSysConfig, ClassicIsTheDefaultAndKeysAreStable)
{
    sim::MachineConfig mc;
    EXPECT_TRUE(mc.memsys.classic());
    EXPECT_FALSE(mc.memsys.l1dPrefetch.enabled());
    EXPECT_STREQ(sim::memSysModeKey(sim::MemSysParams::Mode::Classic),
                 "classic");
    EXPECT_STREQ(sim::memSysModeKey(sim::MemSysParams::Mode::Lsq), "lsq");
    EXPECT_STREQ(sim::prefetchKindKey(sim::PrefetchParams::Kind::None),
                 "none");
    EXPECT_STREQ(sim::prefetchKindKey(sim::PrefetchParams::Kind::NextLine),
                 "next_line");
    EXPECT_STREQ(sim::prefetchKindKey(sim::PrefetchParams::Kind::Stride),
                 "stride");

    sim::MachineConfig lsq = lsqConfig(8, 12);
    EXPECT_FALSE(lsq.memsys.classic());
    EXPECT_EQ(lsq.memsys.lsq.loads, 8u);
    EXPECT_EQ(lsq.memsys.lsq.stores, 12u);
    // Memsys participates in config equality (driver machine reuse).
    EXPECT_FALSE(lsq == sim::MachineConfig());
    EXPECT_TRUE(lsq == lsqConfig(8, 12));
}

// ---------------------------------------------------------------------
// LoadStoreQueue unit behaviour.
// ---------------------------------------------------------------------

TEST(LoadStoreQueue, ClassicOrderingMatchesStoreTableSemantics)
{
    sim::LoadStoreQueue q(sim::LsqParams{}, /*classic=*/true);
    q.storeCompleteClassic(0x1000, 50);
    // Same granule, load ready before the store's data: wait.
    sim::LoadStoreQueue::Order o = q.orderLoadClassic(0x1000, 10);
    EXPECT_EQ(o.ready, 50u);
    EXPECT_FALSE(o.forwarded); // classic never forwards
    EXPECT_FALSE(o.violation);
    // Ready after the store completed: no delay.
    o = q.orderLoadClassic(0x1004, 60); // same 8-byte granule
    EXPECT_EQ(o.ready, 60u);
    // Different granule: untouched.
    o = q.orderLoadClassic(0x2000, 10);
    EXPECT_EQ(o.ready, 10u);
    EXPECT_EQ(q.occupancy(true, 0), 0u);
    // Classic reservation is a no-op regardless of depth (the flag is
    // caller-initialized and only ever set, never cleared).
    sim::Cache l2(sim::CacheParams{"L2", 512, 1, 64, 12}, nullptr, 230);
    sim::Cache l1d(sim::CacheParams{"L1D", 256, 2, 64, 1}, &l2, 230);
    sim::MemorySystem ms(sim::MemSysParams{}, &l1d);
    bool limited = false;
    EXPECT_EQ(ms.reserve<true>(true, 123, &limited), 123u);
    EXPECT_FALSE(limited);
}

TEST(LoadStoreQueue, ForwardsFromCompletedStore)
{
    sim::LoadStoreQueue q(sim::LsqParams{}, /*classic=*/false);
    q.storeCompleteLsq(0x1000, 20);
    // Load ready after the store's data: forwarded, no extra wait.
    sim::LoadStoreQueue::Order o = q.orderLoadLsq(0x200, 0x1000, 30);
    EXPECT_TRUE(o.forwarded);
    EXPECT_FALSE(o.violation);
    EXPECT_EQ(o.ready, 30u);
}

TEST(LoadStoreQueue, ViolationTrainsThePredictor)
{
    sim::LoadStoreQueue q(sim::LsqParams{}, /*classic=*/false);
    q.storeCompleteLsq(0x1000, 100);
    // First encounter: the load speculates past the incomplete store
    // and is squashed.
    sim::LoadStoreQueue::Order o = q.orderLoadLsq(0x200, 0x1000, 10);
    EXPECT_TRUE(o.violation);
    EXPECT_EQ(o.conflictComplete, 100u);
    // Same static load again: the predictor now says "dependent", so
    // it waits for the store and forwards instead of violating.
    q.storeCompleteLsq(0x1000, 200);
    o = q.orderLoadLsq(0x200, 0x1000, 110);
    EXPECT_FALSE(o.violation);
    EXPECT_TRUE(o.forwarded);
    EXPECT_EQ(o.ready, 200u);
    // beginRun (new measurement, same machine) keeps the training...
    q.beginRun();
    q.storeCompleteLsq(0x1000, 300);
    o = q.orderLoadLsq(0x200, 0x1000, 250);
    EXPECT_FALSE(o.violation);
    EXPECT_TRUE(o.forwarded);
    // ...while reset() forgets it.
    q.reset();
    q.storeCompleteLsq(0x1000, 400);
    o = q.orderLoadLsq(0x200, 0x1000, 350);
    EXPECT_TRUE(o.violation);
}

/**
 * beginRun() empties the store table and the queues without rewriting
 * them: stores and commits of the previous run are invisible to the
 * next one, in both modes, exactly as on a fresh queue.
 */
TEST(LoadStoreQueue, BeginRunForgetsEarlierStoresAndCommits)
{
    sim::LoadStoreQueue classic(sim::LsqParams{}, /*classic=*/true);
    classic.storeCompleteClassic(0x1000, 500);
    classic.beginRun();
    EXPECT_EQ(classic.orderLoadClassic(0x1000, 10).ready, 10u);
    // This run's store still orders.
    classic.storeCompleteClassic(0x1000, 50);
    EXPECT_EQ(classic.orderLoadClassic(0x1000, 10).ready, 50u);

    sim::LsqParams p;
    p.loads = 2;
    p.stores = 2;
    sim::LoadStoreQueue q(p, /*classic=*/false);
    for (uint64_t c = 100; c < 104; ++c) {
        q.storeCompleteLsq(0x2000, c);
        q.commitLsq(true, c);
        q.commitLsq(false, c);
    }
    q.beginRun();
    bool limited = false;
    EXPECT_EQ(q.reserveLsq(true, 5, &limited), 5u);
    EXPECT_EQ(q.reserveLsq(false, 5, &limited), 5u);
    EXPECT_FALSE(limited);
    EXPECT_EQ(q.occupancy(true, 0), 0u);
    EXPECT_EQ(q.occupancy(false, 0), 0u);
    sim::LoadStoreQueue::Order o = q.orderLoadLsq(0x200, 0x2000, 10);
    EXPECT_FALSE(o.forwarded);
    EXPECT_FALSE(o.violation);
    EXPECT_EQ(o.ready, 10u);
}

TEST(LoadStoreQueue, ReservationBackPressuresAndCommitFrees)
{
    sim::LsqParams p;
    p.loads = 2;
    sim::LoadStoreQueue q(p, /*classic=*/false);
    bool limited = false;
    EXPECT_EQ(q.reserveLsq(true, 10, &limited), 10u);
    EXPECT_FALSE(limited);
    EXPECT_EQ(q.reserveLsq(true, 10, &limited), 10u);
    EXPECT_FALSE(limited);
    // Queue full; the two in-flight loads commit at 30 and 40.
    q.commitLsq(true, 30);
    q.commitLsq(true, 40);
    EXPECT_EQ(q.occupancy(true, 10), 2u);
    EXPECT_EQ(q.occupancy(true, 35), 1u);
    // Third load wants to dispatch at 10 but the oldest entry frees
    // only after its commit at 30.
    limited = false;
    uint64_t dc = q.reserveLsq(true, 10, &limited);
    EXPECT_TRUE(limited);
    EXPECT_GT(dc, 10u);
}

// ---------------------------------------------------------------------
// Demand access outcome.
// ---------------------------------------------------------------------

/**
 * An L2 miss is the demand fill's, not a writeback's: under a 2-way
 * 256 B L1D and a 1-way 512 B L2 (64 B lines), ld C, st A, ld B, ld C
 * ends with an L1D miss whose dirty victim A misses in the L2 (B
 * evicted it there) while C itself hits in the L2.  The access pays
 * L2 latency and reports no L2 miss; the writeback's miss still shows
 * in the L2's own statistics.
 */
TEST(MemSysAccess, DirtyWritebackMissIsNotTheDemandL2Miss)
{
    sim::CacheParams l1p{"L1D", 256, 2, 64, 1};
    sim::CacheParams l2p{"L2", 512, 1, 64, 12};
    sim::Cache l2(l2p, nullptr, 230);
    sim::Cache l1d(l1p, &l2, 230);
    sim::MemorySystem ms(sim::MemSysParams{}, &l1d);
    const uint64_t a = 0x000, b = 0x200, c = 0x080; // one L1D set;
                                                    // A, B share an L2 set
    ms.access(0x100, c, false, 0);
    ms.access(0x104, a, true, 0);
    ms.access(0x108, b, false, 0);
    EXPECT_EQ(l2.stats().misses, 3u);
    sim::MemorySystem::Access r = ms.access(0x10c, c, false, 0);
    EXPECT_TRUE(r.l1dMiss);
    EXPECT_FALSE(r.l2Miss);
    EXPECT_EQ(r.latency, 1u + 12u);
    EXPECT_EQ(l2.stats().misses, 4u); // A's writeback missed
    EXPECT_EQ(l2.stats().writebacksIn, 1u);
}

// ---------------------------------------------------------------------
// Machine-level lsq mode.
// ---------------------------------------------------------------------

TEST(MemSysMachine, StoreForwardingAndDisambiguation)
{
    sim::RunResult classic = runSrc(kForwardLoopSrc, sim::MachineConfig());
    EXPECT_EQ(classic.counters.storeForwards, 0u);
    EXPECT_EQ(classic.counters.disambigFlushes, 0u);

    sim::RunResult lsq = runSrc(kForwardLoopSrc, lsqConfig());
    const sim::Counters &c = lsq.counters;
    expectExactStack(c, "forward loop (lsq)");
    // The racing load violates at least once, the predictor learns,
    // and nearly every later iteration forwards.
    EXPECT_GE(c.disambigFlushes, 1u);
    EXPECT_GT(c.storeForwards, 1000u);
    EXPECT_GT(c.cpi[size_t(sim::CpiComponent::DisambigFlush)], 0u);
    // Forwarded loads never reach the L1D: fewer data-cache accesses
    // than the classic run of the same program.
    EXPECT_LT(c.l1dAccesses, classic.counters.l1dAccesses);
    // Architectural behaviour is identical.
    EXPECT_EQ(c.instructions, classic.counters.instructions);
    EXPECT_EQ(lsq.exitCode, classic.exitCode);
    // Forwarding wins over the classic wait-for-completion path.
    EXPECT_LT(c.cycles, classic.counters.cycles);

    // With a slow forwarding network the waiting load becomes the
    // commit-gap closer and its stall cycles land in LsuFwd.
    sim::MachineConfig slowFwd = lsqConfig();
    slowFwd.memsys.lsq.forwardLatency = 4;
    sim::RunResult slow = runSrc(kForwardLoopSrc, slowFwd);
    expectExactStack(slow.counters, "forward loop (slow forward)");
    EXPECT_GT(slow.counters.cpi[size_t(sim::CpiComponent::LsuFwd)], 0u);
}

TEST(MemSysMachine, TinyQueuesBackPressureDispatch)
{
    // Queues as deep as the ROB can never be the limiter.
    sim::RunResult roomy = runSrc(kBurstLoopSrc, lsqConfig(100, 100));
    EXPECT_EQ(roomy.counters.lsqFullLoads, 0u);
    EXPECT_EQ(roomy.counters.lsqFullStores, 0u);

    sim::RunResult tiny = runSrc(kBurstLoopSrc, lsqConfig(2, 2));
    const sim::Counters &c = tiny.counters;
    expectExactStack(c, "burst loop (tiny lsq)");
    EXPECT_GT(c.lsqFullStores, 0u);
    EXPECT_GT(c.cpi[size_t(sim::CpiComponent::LsqFull)], 0u);
    EXPECT_GE(c.cycles, roomy.counters.cycles);
    EXPECT_EQ(c.instructions, roomy.counters.instructions);

    // Load-side pressure: streaming load bursts whose misses keep
    // entries open; a two-entry load queue throttles dispatch.
    sim::RunResult loads = runSrc(kLoadBurstSrc, lsqConfig(2, 16));
    expectExactStack(loads.counters, "load burst (tiny load queue)");
    EXPECT_GT(loads.counters.lsqFullLoads, 0u);
    EXPECT_GT(loads.counters.cpi[size_t(sim::CpiComponent::LsqFull)], 0u);
}

TEST(MemSysMachine, StridePrefetcherCoversStreamingMisses)
{
    sim::RunResult plain = runSrc(kStreamLoopSrc, lsqConfig());
    sim::RunResult pf = runSrc(
        kStreamLoopSrc, lsqConfig(16, 16, sim::PrefetchParams::Kind::Stride));
    const sim::Counters &c = pf.counters;
    expectExactStack(c, "stream loop (stride prefetch)");
    EXPECT_GT(c.prefetchIssued, 0u);
    EXPECT_GT(c.prefetchHits, 0u);
    // Prefetched lines turn demand misses into (partial) hits...
    EXPECT_LT(c.l1dMisses, plain.counters.l1dMisses);
    // ...and the loop runs measurably faster.
    EXPECT_LT(c.cycles, plain.counters.cycles);
    EXPECT_EQ(c.instructions, plain.counters.instructions);
}

TEST(MemSysMachine, NextLinePrefetcherAlsoHelpsStreams)
{
    sim::RunResult plain = runSrc(kStreamLoopSrc, lsqConfig());
    sim::RunResult pf =
        runSrc(kStreamLoopSrc,
               lsqConfig(16, 16, sim::PrefetchParams::Kind::NextLine));
    EXPECT_GT(pf.counters.prefetchIssued, 0u);
    EXPECT_GT(pf.counters.prefetchHits, 0u);
    EXPECT_LE(pf.counters.l1dMisses, plain.counters.l1dMisses);
}

TEST(MemSysMachine, TracedAndUntracedAgreeInLsqMode)
{
    sim::MachineConfig mc =
        lsqConfig(8, 8, sim::PrefetchParams::Kind::Stride);
    sim::RunResult plain = runSrc(kForwardLoopSrc, mc);
    obs::CpiStackSink sink;
    sim::RunResult traced = runSrc(kForwardLoopSrc, mc, &sink);
    EXPECT_TRUE(plain.counters == traced.counters);
    EXPECT_TRUE(sink.stack().consistent());
    EXPECT_EQ(sink.stack().totalCycles, plain.counters.cycles);
}

TEST(MemSysMachine, ResetEqualsFreshInLsqMode)
{
    masm::Program prog = masm::assemble(kForwardLoopSrc);
    sim::MachineConfig mc =
        lsqConfig(8, 8, sim::PrefetchParams::Kind::Stride);

    sim::Machine fresh(mc);
    fresh.loadProgram(prog);
    fresh.state().pc = prog.base;
    sim::Counters first = fresh.run().counters;

    sim::Machine reused(mc);
    reused.loadProgram(prog);
    reused.state().pc = prog.base;
    reused.run();
    reused.reset();
    reused.loadProgram(prog);
    reused.state().pc = prog.base;
    sim::Counters second = reused.run().counters;
    // reset() clears the dependence predictor and prefetch tables, so
    // the second run re-learns from scratch: bit-identical counters.
    EXPECT_TRUE(first == second);
}

TEST(MemSysMachine, DisambigFlushRecordsReachTheSink)
{
    struct Collector : sim::TraceSink
    {
        uint64_t disambigFlushes = 0;
        uint64_t forwardedRecords = 0;
        uint64_t flushRecords = 0;
        unsigned maxLoadOcc = 0;
        unsigned maxStoreOcc = 0;
        void
        onFlush(const sim::FlushRecord &r) override
        {
            if (r.cause == sim::FlushRecord::Cause::Disambig)
                ++flushRecords;
        }
        void
        onInstruction(const sim::InstRecord &r,
                      const sim::Counters &) override
        {
            disambigFlushes += r.disambigFlush;
            forwardedRecords += r.forwarded;
            maxLoadOcc = std::max(maxLoadOcc, r.lsqLoadOcc);
            maxStoreOcc = std::max(maxStoreOcc, r.lsqStoreOcc);
        }
    };

    Collector sink;
    sim::RunResult r = runSrc(kForwardLoopSrc, lsqConfig(8, 8), &sink);
    EXPECT_EQ(sink.disambigFlushes, r.counters.disambigFlushes);
    EXPECT_EQ(sink.forwardedRecords, r.counters.storeForwards);
    EXPECT_EQ(sink.flushRecords, r.counters.disambigFlushes);
    EXPECT_GT(sink.maxLoadOcc, 0u);
    EXPECT_LE(sink.maxLoadOcc, 8u);
    EXPECT_LE(sink.maxStoreOcc, 8u);

    // Classic-mode records carry no occupancy and no lsq outcomes.
    Collector classicSink;
    runSrc(kForwardLoopSrc, sim::MachineConfig(), &classicSink);
    EXPECT_EQ(classicSink.maxLoadOcc, 0u);
    EXPECT_EQ(classicSink.maxStoreOcc, 0u);
    EXPECT_EQ(classicSink.forwardedRecords, 0u);
    EXPECT_EQ(classicSink.flushRecords, 0u);
}

TEST(MemSysMachine, SampledRunKeepsArchCountersExactInLsqMode)
{
    sim::MachineConfig mc =
        lsqConfig(16, 16, sim::PrefetchParams::Kind::Stride);
    sim::RunResult full = runSrc(kForwardLoopSrc, mc);
    sim::RunResult sampled =
        runSrc(kForwardLoopSrc, mc, nullptr, {2'000, 18'000, true});
    ASSERT_TRUE(sampled.sampled);
    expectExactStack(sampled.counters, "sampled lsq run");
    // Architectural counters are exact under sampling...
    EXPECT_EQ(sampled.counters.instructions, full.counters.instructions);
    EXPECT_EQ(sampled.counters.loads, full.counters.loads);
    EXPECT_EQ(sampled.counters.stores, full.counters.stores);
    // ...and the reconstructed demand-access count stays consistent
    // with the forwarding identity accesses = loads+stores-forwards.
    EXPECT_EQ(sampled.counters.l1dAccesses,
              sampled.counters.loads + sampled.counters.stores -
                  std::min(sampled.counters.storeForwards,
                           sampled.counters.loads +
                               sampled.counters.stores));
}

// ---------------------------------------------------------------------
// Acceptance shape: the modernised memory path wins on a DP kernel.
// ---------------------------------------------------------------------

TEST(MemSysMachine, LsqWithPrefetchBeatsClassicOnDpKernel)
{
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw; // dropgsw DP kernel family
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 60'000;
    workloads::Workload w(wc);

    sim::Counters classic =
        w.simulate(mpc::Variant::Baseline, sim::MachineConfig()).counters;
    sim::Counters lsq =
        w.simulate(mpc::Variant::Baseline,
                   lsqConfig(16, 16, sim::PrefetchParams::Kind::Stride))
            .counters;
    expectExactStack(lsq, "clustalw (lsq+stride)");
    EXPECT_EQ(lsq.instructions, classic.instructions);
    EXPECT_GT(lsq.storeForwards, 0u);
    // Forwarding plus prefetch produce a measurable IPC improvement.
    EXPECT_GT(lsq.ipc(), classic.ipc() * 1.01);
}

} // namespace
} // namespace bp5
