/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: functional
 * and timing simulation throughput (simulated instructions per second)
 * on the Smith-Waterman kernel, the per-access cost of guest memory
 * reads, plus compile time of the mpc pipeline.
 *
 * With --json the binary skips google-benchmark and instead emits one
 * JSON Lines record per (workload, mode) measuring simulated MIPS and
 * host wall time across all four applications: the machine-readable
 * perf trajectory.  CI compares it against the checked-in baseline
 * BENCH_simspeed.json with tools/perf_gate.py and fails the build on
 * a >20% sim_mips regression at any (workload, mode) point.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bio/generator.h"
#include "kernels/kernels.h"
#include "sim/memory.h"
#include "support/result.h"
#include "workloads/workload.h"

using namespace bp5;
using namespace bp5::kernels;

namespace {

struct Fixture
{
    bio::Sequence a, b;
    const bio::SubstitutionMatrix &m = bio::SubstitutionMatrix::blosum62();
    bio::GapPenalty gap{10, 1};

    Fixture()
        : a("a", bio::Alphabet::Protein, ""),
          b("b", bio::Alphabet::Protein, "")
    {
        bio::SequenceGenerator g(99);
        a = g.random(100, "a");
        b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    }
};

const Fixture &
fx()
{
    static Fixture f;
    return f;
}

void
BM_FunctionalSimulation(benchmark::State &state)
{
    KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                     sim::MachineConfig());
    km.setFunctionalOnly(true);
    AlignProblem p{&fx().a, &fx().b, &fx().m, fx().gap};
    uint64_t before = 0;
    for (auto _ : state) {
        km.run(p);
        benchmark::DoNotOptimize(km.totals().instructions);
    }
    state.SetItemsProcessed(
        int64_t(km.totals().instructions - before));
    state.counters["MIPS"] = benchmark::Counter(
        double(km.totals().instructions),
        benchmark::Counter::kIsRate,
        benchmark::Counter::kIs1000);
}
BENCHMARK(BM_FunctionalSimulation)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulation(benchmark::State &state)
{
    KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                     sim::MachineConfig());
    AlignProblem p{&fx().a, &fx().b, &fx().m, fx().gap};
    for (auto _ : state) {
        km.run(p);
        benchmark::DoNotOptimize(km.totals().cycles);
    }
    state.counters["MIPS"] = benchmark::Counter(
        double(km.totals().instructions),
        benchmark::Counter::kIsRate,
        benchmark::Counter::kIs1000);
}
BENCHMARK(BM_TimingSimulation)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulationWithBtac(benchmark::State &state)
{
    KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                     sim::MachineConfig::power5WithBtac());
    AlignProblem p{&fx().a, &fx().b, &fx().m, fx().gap};
    for (auto _ : state) {
        km.run(p);
        benchmark::DoNotOptimize(km.totals().cycles);
    }
}
BENCHMARK(BM_TimingSimulationWithBtac)->Unit(benchmark::kMillisecond);

/**
 * Guest-memory reads cycling round-robin over state.range(0) resident
 * pages: flat while the pages fit the software TLB
 * (sim::Memory::kTlbSlots), one page-table walk per read beyond it.
 */
void
BM_MemoryScatterRead(benchmark::State &state)
{
    constexpr size_t kReadsPerIter = 1024;
    sim::Memory mem;
    std::vector<uint64_t> addrs;
    for (int64_t p = 0; p < state.range(0); ++p) {
        uint64_t addr = (uint64_t(0x100 + p) << sim::Memory::kPageShift) +
                        8 * uint64_t(p % 64);
        mem.writeU64(addr, uint64_t(p));
        addrs.push_back(addr);
    }
    size_t next = 0;
    for (auto _ : state) {
        uint64_t sum = 0;
        for (size_t i = 0; i < kReadsPerIter; ++i) {
            sum += mem.readU64(addrs[next]);
            if (++next == addrs.size())
                next = 0;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations() * kReadsPerIter));
}
BENCHMARK(BM_MemoryScatterRead)->RangeMultiplier(4)->Range(1, 256);

void
BM_KernelCompile(benchmark::State &state)
{
    for (auto _ : state) {
        mpc::Compiled c = compileKernel(
            static_cast<KernelKind>(state.range(0)),
            mpc::Variant::CompIsel);
        benchmark::DoNotOptimize(c.insts.size());
    }
}
BENCHMARK(BM_KernelCompile)->DenseRange(0, 3);

void
BM_AssembleRoundTrip(benchmark::State &state)
{
    mpc::Compiled c =
        compileKernel(KernelKind::Dropgsw, mpc::Variant::Baseline);
    for (auto _ : state) {
        masm::Program p = c.program(0x10000);
        benchmark::DoNotOptimize(p.image.size());
    }
}
BENCHMARK(BM_AssembleRoundTrip);

/** Execution modes measured by the --json perf trajectory. */
enum class Mode
{
    Timing,     ///< full-detail OoO model
    Functional, ///< compiled engine, no cycle accounting
    Sampled,    ///< SMARTS windows + warmed fast-forward
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Timing: return "timing";
      case Mode::Functional: return "functional";
      default: return "sampled";
    }
}

/// Sampled-mode configuration: 5% detail (2k-instruction windows every
/// 40k instructions), the setting validated by bench/ablation_sampling.
constexpr uint64_t kSampledDetail = 2'000;
constexpr uint64_t kSampledSkip = 38'000;

/// Repeat each measurement until this much wall time accumulates so a
/// single fast run can't produce a near-zero denominator (the old
/// single-shot measurement emitted garbage MIPS for short kernels).
constexpr double kMinWallSeconds = 0.05;
constexpr unsigned kMaxReps = 50;

/**
 * One --json measurement: simulate @p app repeatedly and report the
 * aggregate speed.  The clock is steady_clock and covers the whole
 * simulate() call — kernel-invocation marshalling and native-reference
 * validation included — identically across modes and PR generations,
 * so trajectory ratios compare like with like.
 */
support::ResultRow
measureApp(workloads::App app, Mode mode, uint64_t budget)
{
    workloads::WorkloadConfig wc;
    wc.app = app;
    wc.simInstructionBudget = budget;
    workloads::Workload w(wc);
    KernelMachine km(workloads::appKernel(app), mpc::Variant::Baseline,
                     sim::MachineConfig());

    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;
    uint64_t invocations = 0;
    unsigned reps = 0;
    double wall = 0.0;
    while (wall < kMinWallSeconds && reps < kMaxReps) {
        km.reset(); // also clears mode flags; re-apply per rep
        if (mode == Mode::Functional)
            km.setFunctionalOnly(true);
        else if (mode == Mode::Sampled)
            km.setSampling({kSampledDetail, kSampledSkip, true});

        auto t0 = std::chrono::steady_clock::now();
        workloads::SimResult r = w.simulate(km);
        wall += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        ++reps;
        instructions += r.counters.instructions;
        cycles = r.counters.cycles;
        ipc = r.counters.ipc();
        invocations = r.invocations;
    }

    support::ResultRow row;
    row.set("workload", workloads::appName(app))
        .set("mode", modeName(mode))
        .set("instructions", instructions)
        .set("cycles", cycles)
        .set("ipc", ipc)
        .set("invocations", invocations)
        .set("reps", uint64_t(reps))
        .set("wall_s", wall, 4)
        .set("sim_mips",
             wall > 1e-9 ? double(instructions) / wall / 1e6 : 0.0,
             2);
    return row;
}

/**
 * Emit the perf-trajectory record: one row per (workload, mode).
 * Schema (parsed by tools/perf_gate.py; keep stable):
 *   {"title": "sim-speed",
 *    "rows": [{"workload": ..., "mode": ..., "instructions": ...,
 *              "cycles": ..., "ipc": ..., "invocations": ...,
 *              "reps": ..., "wall_s": ..., "sim_mips": ...}, ...]}
 */
int
jsonMain(uint64_t budget)
{
    std::vector<support::ResultRow> rows;
    for (workloads::App app :
         {workloads::App::Blast, workloads::App::Clustalw,
          workloads::App::Fasta, workloads::App::Hmmer}) {
        for (Mode mode :
             {Mode::Timing, Mode::Functional, Mode::Sampled})
            rows.push_back(measureApp(app, mode, budget));
    }
    std::fputs(support::emitJsonLine(rows, "sim-speed").c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    uint64_t budget = 2'000'000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strncmp(argv[i], "--budget=", 9) == 0)
            budget = std::strtoull(argv[i] + 9, nullptr, 10);
    }
    if (json)
        return jsonMain(budget);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
