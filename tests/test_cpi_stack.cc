/**
 * @file
 * Cycle-accounting engine tests.  The tentpole invariant: every
 * simulated cycle lands in exactly one sim::CpiComponent, and the
 * components sum bit-exactly to total cycles — per run, per PMU
 * window, across all four applications and code variants, traced or
 * untraced, with SMARTS sampling on or off.  Also covers the per-PC
 * stall profile, the obs::CpiStack presentation type, and the
 * support::Log2Histogram utility.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bio/generator.h"
#include "driver/driver.h"
#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "obs/cpi_stack.h"
#include "obs/pmu_sampler.h"
#include "obs/site_profile.h"
#include "sim/machine.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "workloads/workload.h"

namespace bp5 {
namespace {

/// Data-dependent branches plus memory traffic: exercises every CPI
/// component except the rarely-hit ROB/LSU corners.
const char *kLoopSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r15, 1234
        li      r12, 4096
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
runLoopOn(const sim::MachineConfig &mc, sim::TraceSink *sink = nullptr,
          const sim::SamplingParams &sp = sim::SamplingParams{})
{
    masm::Program prog = masm::assemble(kLoopSrc);
    sim::Machine m(mc);
    m.setSampling(sp);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    m.setTraceSink(sink);
    sim::RunResult r = m.run();
    EXPECT_TRUE(r.halted);
    return r;
}

sim::RunResult
runLoop(sim::TraceSink *sink = nullptr,
        const sim::SamplingParams &sp = sim::SamplingParams{})
{
    return runLoopOn(sim::MachineConfig(), sink, sp);
}

void
expectExactStack(const sim::Counters &c, const std::string &what)
{
    obs::CpiStack s = obs::CpiStack::fromCounters(c);
    EXPECT_TRUE(s.consistent())
        << what << ": cpi components sum to " << s.sum() << " but cycles="
        << c.cycles;
    EXPECT_GT(c.cycles, 0u) << what;
    // Completing cycles count distinct commit cycles: at least one per
    // completion-width group, never more than one per instruction.
    uint64_t done = c.cpi[size_t(sim::CpiComponent::Completing)];
    EXPECT_GT(done, 0u) << what;
    EXPECT_LE(done, c.instructions) << what;
}

// ---------------------------------------------------------------------
// The tentpole invariant.
// ---------------------------------------------------------------------

TEST(CpiInvariant, HoldsOnAllAppsAndVariants)
{
    // The full (app x variant) grid of the paper's evaluation at a
    // small budget: the invariant must hold on every point the
    // benches can produce, not just the baseline.
    constexpr int kNumVariants = int(mpc::Variant::NUM_VARIANTS);
    std::vector<driver::GridPoint> grid;
    for (int a = 0; a < int(workloads::App::NUM_APPS); ++a) {
        for (int v = 0; v < kNumVariants; ++v) {
            driver::GridPoint p;
            p.workload.app = workloads::App(a);
            p.workload.klass = workloads::InputClass::A;
            p.workload.simInstructionBudget = 60'000;
            p.variant = mpc::Variant(v);
            grid.push_back(p);
        }
    }
    driver::ExperimentDriver d;
    std::vector<driver::PointResult> res = d.run(grid);
    ASSERT_EQ(res.size(), grid.size());
    for (size_t i = 0; i < res.size(); ++i) {
        expectExactStack(res[i].sim.counters,
                         std::string(appName(grid[i].workload.app)) + "/" +
                             mpc::variantName(grid[i].variant));
    }
}

TEST(CpiInvariant, TracedAndUntracedAgree)
{
    sim::RunResult plain = runLoop();
    expectExactStack(plain.counters, "untraced");

    obs::CpiStackSink sink;
    sim::RunResult traced = runLoop(&sink);
    EXPECT_TRUE(plain.counters == traced.counters);
    EXPECT_TRUE(sink.stack().consistent());
    EXPECT_EQ(sink.stack().totalCycles, plain.counters.cycles);
}

TEST(CpiInvariant, EveryPmuWindowIsAnExactStack)
{
    obs::PmuSampler sampler(777); // odd interval: windows cut mid-loop
    sim::RunResult r = runLoop(&sampler);

    obs::CpiStack sum;
    auto windows = sampler.intervals(true);
    ASSERT_GT(windows.size(), 2u);
    for (const obs::PmuInterval &w : windows) {
        obs::CpiStack s = obs::CpiStack::fromCounters(w.delta);
        EXPECT_TRUE(s.consistent())
            << "window [" << w.startCycle << ", " << w.endCycle
            << "): sum=" << s.sum() << " cycles=" << w.delta.cycles;
        sum.add(s);
    }
    EXPECT_TRUE(sum.consistent());
    EXPECT_EQ(sum.totalCycles, r.counters.cycles);
    EXPECT_EQ(sum.cycles, r.counters.cpi);
}

TEST(CpiInvariant, SampledRunExtrapolationStaysExact)
{
    // SMARTS sampling extrapolates each component independently and
    // repairs the rounding residue: the result must still sum to the
    // (extrapolated) cycle total bit-exactly.
    sim::RunResult sampled = runLoop(nullptr, {2'000, 18'000, true});
    ASSERT_TRUE(sampled.sampled);
    expectExactStack(sampled.counters, "sampled");

    // ...and tracks the full-detail stack in shape: shares within a
    // few points for the components this loop exercises.
    sim::RunResult full = runLoop();
    obs::CpiStack fs = obs::CpiStack::fromCounters(full.counters);
    obs::CpiStack ss = obs::CpiStack::fromCounters(sampled.counters);
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
        EXPECT_NEAR(ss.share(sim::CpiComponent(i)),
                    fs.share(sim::CpiComponent(i)), 0.1)
            << sim::cpiComponentKey(sim::CpiComponent(i));
    }
}

TEST(CpiInvariant, HoldsInLsqModeAcrossQueueAndPrefetchConfigs)
{
    // The invariant must survive the MemorySystem's new flush source
    // (ordering violations), forwarding, LSQ back-pressure and
    // prefetching — per run, per PMU window, and under sampling.
    const sim::MachineConfig configs[] = {
        sim::MachineConfig::power5WithLsq(),
        sim::MachineConfig::power5WithLsq(8, 8,
                                          sim::PrefetchParams::Kind::Stride),
        sim::MachineConfig::power5WithLsq(
            16, 16, sim::PrefetchParams::Kind::NextLine),
        sim::MachineConfig::power5WithLsq(2, 2,
                                          sim::PrefetchParams::Kind::Stride),
    };
    for (const sim::MachineConfig &mc : configs) {
        std::string what =
            strprintf("lsq %u/%u pf=%s", mc.memsys.lsq.loads,
                      mc.memsys.lsq.stores,
                      sim::prefetchKindKey(mc.memsys.l1dPrefetch.kind));
        expectExactStack(runLoopOn(mc).counters, what);

        obs::PmuSampler sampler(777);
        sim::RunResult r = runLoopOn(mc, &sampler);
        obs::CpiStack sum;
        for (const obs::PmuInterval &w : sampler.intervals(true)) {
            obs::CpiStack s = obs::CpiStack::fromCounters(w.delta);
            EXPECT_TRUE(s.consistent())
                << what << " window [" << w.startCycle << ", "
                << w.endCycle << ")";
            sum.add(s);
        }
        EXPECT_EQ(sum.totalCycles, r.counters.cycles) << what;
        EXPECT_EQ(sum.cycles, r.counters.cpi) << what;

        sim::RunResult sampled =
            runLoopOn(mc, nullptr, {2'000, 18'000, true});
        ASSERT_TRUE(sampled.sampled) << what;
        expectExactStack(sampled.counters, what + " (sampled)");
    }
}

TEST(CpiInvariant, SampledKernelMachineWorkload)
{
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Hmmer;
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 150'000;
    workloads::Workload w(wc);

    kernels::KernelMachine km(workloads::appKernel(wc.app),
                              mpc::Variant::Baseline, sim::MachineConfig());
    km.setSampling({2'000, 18'000, true});
    w.simulate(km);
    expectExactStack(km.totals(), "sampled kernel machine");

    kernels::KernelMachine full(workloads::appKernel(wc.app),
                                mpc::Variant::Baseline, sim::MachineConfig());
    w.simulate(full);
    expectExactStack(full.totals(), "full kernel machine");
}

// ---------------------------------------------------------------------
// Per-PC stall attribution.
// ---------------------------------------------------------------------

TEST(StallProfile, SitesSumToNonCompletingCycles)
{
    bio::SequenceGenerator g(5);
    bio::Sequence a = g.random(48, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};

    // Second input: Clustalw's kernel under lsq+stride with 4-entry
    // queues and a 4-cycle forward, so forwarding, ordering squashes
    // and queue-full stalls are charged to sites too.
    sim::MachineConfig lsq;
    lsq.memsys.mode = sim::MemSysParams::Mode::Lsq;
    lsq.memsys.l1dPrefetch.kind = sim::PrefetchParams::Kind::Stride;
    lsq.memsys.lsq.loads = 4;
    lsq.memsys.lsq.stores = 4;
    lsq.memsys.lsq.forwardLatency = 4;
    struct Input
    {
        kernels::KernelKind kind;
        sim::MachineConfig mc;
    };
    for (const Input &in : {Input{kernels::KernelKind::Dropgsw, {}},
                            Input{kernels::KernelKind::ForwardPass, lsq}}) {
        kernels::KernelMachine km(in.kind, mpc::Variant::Baseline, in.mc);
        obs::SiteProfileSink sites;
        km.setTraceSink(&sites);
        for (int i = 0; i < 3; ++i)
            km.run(p);

        const sim::Counters &c = km.totals();
        expectExactStack(c, "stall-profiled run");

        // Every gap cycle is charged to the PC of the instruction that
        // closed the gap; completing cycles are not attributed to
        // sites.  Per component, the sites sum to the CPI stack.
        sim::StallSiteStats sum;
        for (const auto &[pc, stats] : sites.stalls()) {
            EXPECT_NE(pc, 0u);
            EXPECT_GT(stats.total(), 0u);
            sum.add(stats);
        }
        for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
            auto comp = sim::CpiComponent(i);
            EXPECT_EQ(sum.cycles[i],
                      comp == sim::CpiComponent::Completing ? 0 : c.cpi[i])
                << sim::cpiComponentKey(comp);
        }
        EXPECT_GT(sites.stalls().size(), 3u); // several distinct sites
        if (in.mc.memsys.classic())
            continue;
        for (auto comp : {sim::CpiComponent::LsuFwd,
                          sim::CpiComponent::DisambigFlush,
                          sim::CpiComponent::LsqFull})
            EXPECT_GT(sum.cycles[size_t(comp)], 0u)
                << sim::cpiComponentKey(comp);
    }
}

// ---------------------------------------------------------------------
// The fig3 acceptance shape: branch flush dominates the DP kernels'
// stalls in the Original build and shrinks under predication.
// ---------------------------------------------------------------------

TEST(CpiStack, PredicationShrinksBranchFlushShare)
{
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw; // DP kernel (dropgsw family)
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 200'000;
    workloads::Workload w(wc);

    sim::Counters base =
        w.simulate(mpc::Variant::Baseline, sim::MachineConfig()).counters;
    sim::Counters pred =
        w.simulate(mpc::Variant::Combination, sim::MachineConfig()).counters;
    obs::CpiStack bs = obs::CpiStack::fromCounters(base);
    obs::CpiStack ps = obs::CpiStack::fromCounters(pred);
    ASSERT_TRUE(bs.consistent());
    ASSERT_TRUE(ps.consistent());

    // Branch flush is the largest stall component of the baseline...
    uint64_t flush = bs.cycles[size_t(sim::CpiComponent::BranchFlush)];
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
        auto comp = sim::CpiComponent(i);
        if (comp == sim::CpiComponent::Completing ||
            comp == sim::CpiComponent::BranchFlush)
            continue;
        EXPECT_GE(flush, bs.cycles[i])
            << "baseline " << sim::cpiComponentKey(comp);
    }
    // ...and predication removes most of it.
    EXPECT_LT(ps.share(sim::CpiComponent::BranchFlush),
              bs.share(sim::CpiComponent::BranchFlush));
}

// ---------------------------------------------------------------------
// Presentation: CpiStack value type, renderer, manifest cells, sink.
// ---------------------------------------------------------------------

TEST(CpiStack, RenderListsEveryComponentAndTotal)
{
    obs::CpiStack s = obs::CpiStack::fromCounters(runLoop().counters);
    std::string txt = obs::renderCpiStack(s);
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i)
        EXPECT_NE(txt.find(sim::cpiComponentLabel(sim::CpiComponent(i))),
                  std::string::npos);
    EXPECT_NE(txt.find("total"), std::string::npos);
    EXPECT_NE(txt.find('#'), std::string::npos); // at least one bar
    EXPECT_EQ(txt.find("[INCONSISTENT]"), std::string::npos);

    obs::CpiStack broken = s;
    broken.totalCycles += 1;
    EXPECT_NE(obs::renderCpiStack(broken).find("[INCONSISTENT]"),
              std::string::npos);
}

TEST(CpiStack, ManifestCellsCarryExactComponentCycles)
{
    sim::Counters c = runLoop().counters;
    support::ResultRow row;
    obs::addCpiCells(row, c);
    uint64_t sum = 0;
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
        std::string key = std::string("cpi_") +
                          sim::cpiComponentKey(sim::CpiComponent(i));
        std::string cell = row.text(key);
        ASSERT_FALSE(cell.empty()) << key;
        sum += std::stoull(cell);
    }
    EXPECT_EQ(sum, c.cycles); // integers survive the row verbatim
    EXPECT_FALSE(row.text("cpi").empty());
}

TEST(CpiStackSink, AccumulatesAcrossRunsWithHistograms)
{
    masm::Program prog = masm::assemble(kLoopSrc);
    obs::CpiStackSink sink;
    uint64_t cycles = 0, insts = 0;
    for (int i = 0; i < 2; ++i) {
        sim::Machine m;
        m.loadProgram(prog);
        m.state().pc = prog.base;
        m.setTraceSink(&sink);
        sim::RunResult r = m.run();
        ASSERT_TRUE(r.halted);
        cycles += r.counters.cycles;
        insts += r.counters.instructions;
    }
    EXPECT_TRUE(sink.stack().consistent());
    EXPECT_EQ(sink.stack().totalCycles, cycles);
    EXPECT_EQ(sink.stack().instructions, insts);
    // One latency sample per instruction; commit gaps are a strict
    // subset (first instruction of each run opens no gap).
    EXPECT_EQ(sink.latency().total(), insts);
    EXPECT_GT(sink.commitGap().total(), 0u);
    EXPECT_LT(sink.commitGap().total(), insts);
    EXPECT_GE(sink.latency().min(), 1u); // commit is after fetch
}

// ---------------------------------------------------------------------
// Log2Histogram.
// ---------------------------------------------------------------------

TEST(Log2Histogram, BucketBoundaries)
{
    using H = support::Log2Histogram;
    EXPECT_EQ(H::bucketOf(0), 0u);
    EXPECT_EQ(H::bucketOf(1), 1u);
    EXPECT_EQ(H::bucketOf(2), 2u);
    EXPECT_EQ(H::bucketOf(3), 2u);
    EXPECT_EQ(H::bucketOf(4), 3u);
    EXPECT_EQ(H::bucketOf(~uint64_t(0)), 64u);
    for (unsigned i = 0; i < H::kBuckets; ++i) {
        EXPECT_EQ(H::bucketOf(H::bucketLo(i)), i);
        EXPECT_EQ(H::bucketOf(H::bucketHi(i)), i);
    }
}

TEST(Log2Histogram, CountsStatsAndPercentiles)
{
    support::Log2Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    h.add(1, 90); // bucket 1
    h.add(100, 10); // bucket 7: [64, 127]
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.count(1), 90u);
    EXPECT_EQ(h.count(7), 10u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), (90.0 + 1000.0) / 100.0);
    EXPECT_EQ(h.percentile(50), 1u);   // inside the bucket-1 mass
    EXPECT_EQ(h.percentile(95), 127u); // upper bound of bucket 7
}

TEST(Log2Histogram, TailPercentiles)
{
    // Serving SLOs read p99 off this histogram: the tail bucket must
    // only be reported once at least 1% of the mass sits at or above
    // it.
    support::Log2Histogram h;
    h.add(100, 990); // bucket 7: [64, 127]
    h.add(5000, 10); // bucket 13: [4096, 8191]
    EXPECT_EQ(h.percentile(50), 127u);
    EXPECT_EQ(h.percentile(95), 127u);
    EXPECT_EQ(h.percentile(99), 127u);   // rank 990 is still bucket 7
    EXPECT_EQ(h.percentile(99.5), 8191u); // tail bucket
    EXPECT_EQ(h.percentile(100), 8191u);

    // Degenerate shapes: one sample, and an all-zero population.
    support::Log2Histogram one;
    one.add(42);
    EXPECT_EQ(one.percentile(0), 63u); // bucket-granular upper bound
    EXPECT_EQ(one.percentile(99), 63u);
    support::Log2Histogram zeros;
    zeros.add(0, 7);
    EXPECT_EQ(zeros.percentile(99), 0u);
}

TEST(Log2Histogram, MergeAndText)
{
    support::Log2Histogram a, b;
    a.add(2);
    b.add(1000, 5);
    a.merge(b);
    EXPECT_EQ(a.total(), 6u);
    EXPECT_EQ(a.min(), 2u);
    EXPECT_EQ(a.max(), 1000u);

    std::string txt = a.toText(10);
    EXPECT_NE(txt.find('#'), std::string::npos);
    // One line per populated bucket (2 -> bucket 2; 1000 -> bucket 10).
    size_t lines = 0;
    for (char ch : txt)
        lines += ch == '\n';
    EXPECT_EQ(lines, 2u);
    EXPECT_TRUE(support::Log2Histogram().toText().empty());
}

} // namespace
} // namespace bp5
