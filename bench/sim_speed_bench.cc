/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: functional
 * and timing simulation throughput (simulated instructions per second)
 * on the Smith-Waterman kernel (timing untraced, with a no-op trace
 * sink, and sampled with functional warming), the per-instruction cost of the functional executor's loop
 * (hooked as the timing model runs it, and runFast), the per-access
 * cost of guest memory reads, the cost of KernelMachine::reset()
 * between pooled jobs, plus compile time of the mpc pipeline.
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bio/generator.h"
#include "kernels/kernels.h"
#include "sim/exec.h"
#include "sim/memory.h"
#include "support/logging.h"
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

/**
 * BM_TimingSimulation with an empty TraceSink attached: the cost of the
 * traced timing loop (event records built and delivered to no-op hooks)
 * against the untraced one.
 */
void
BM_TimingSimulationTraced(benchmark::State &state)
{
    KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                     sim::MachineConfig());
    AlignProblem p{&fx().a, &fx().b, &fx().m, fx().gap};
    sim::TraceSink sink;
    km.setTraceSink(&sink);
    for (auto _ : state) {
        km.run(p);
        benchmark::DoNotOptimize(km.totals().cycles);
    }
    state.counters["MIPS"] = benchmark::Counter(
        double(km.totals().instructions),
        benchmark::Counter::kIsRate,
        benchmark::Counter::kIs1000);
}
BENCHMARK(BM_TimingSimulationTraced)->Unit(benchmark::kMillisecond);

/**
 * BM_TimingSimulation under SMARTS sampling with functional warming:
 * 2k-instruction timed windows every 40k, so most instructions retire
 * through the warming fast-forward loop (Machine::runWarm).
 */
void
BM_SampledSimulation(benchmark::State &state)
{
    KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                     sim::MachineConfig());
    km.setSampling({2000, 38000, true});
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
BENCHMARK(BM_SampledSimulation)->Unit(benchmark::kMillisecond);

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
 * KernelMachine::reset() after one timed run of a serve-sized (16
 * residue) Dropgsw job on the baseline POWER5: what a pooled machine
 * pays before each job.  Only the reset is timed.
 */
void
BM_KernelMachineReset(benchmark::State &state)
{
    bio::SequenceGenerator g(16);
    bio::Sequence a = g.random(16, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    AlignProblem p{&a, &b, &fx().m, fx().gap};
    KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                     sim::MachineConfig::power5Baseline());
    for (auto _ : state) {
        state.PauseTiming();
        km.run(p);
        state.ResumeTiming();
        km.reset();
    }
}
// A fixed count: each iteration also runs the job untimed, so letting
// the library scale iterations to a reset of ~1 us would run for minutes.
BENCHMARK(BM_KernelMachineReset)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(2000);

/**
 * Building a baseline POWER5 Dropgsw KernelMachine: compile, lint,
 * load and machine construction, what a pool pays on a key's first
 * use.  The machine's cache tags and store table are demand-zero, so
 * construction writes none of them.
 */
void
BM_KernelMachineBuild(benchmark::State &state)
{
    for (auto _ : state) {
        KernelMachine km(KernelKind::Dropgsw, mpc::Variant::Baseline,
                         sim::MachineConfig::power5Baseline());
        benchmark::DoNotOptimize(&km);
    }
}
BENCHMARK(BM_KernelMachineBuild)->Unit(benchmark::kMicrosecond);

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

/**
 * One Dropgsw invocation on a bare sim::Executor, laid out as
 * KernelMachine lays it out: code at kCodeBase; from kDataBase the two
 * sequences' residue codes, the int32 substitution matrix, two zeroed
 * score rows and the gap penalties, each 8-byte aligned.  reset()
 * rewrites the data and the registers, so every pass of either entry point
 * retires the identical instruction stream.
 */
class ExecutorRig
{
  public:
    ExecutorRig() : exec_(state_, mem_)
    {
        masm::Program prog =
            compileKernel(KernelKind::Dropgsw, mpc::Variant::Baseline)
                .program(kCodeBase);
        mem_.writeBlock(prog.base, prog.image.data(), prog.image.size());
        exec_.setImage(prog.base, prog.image.size());
        const Fixture &f = fx();
        expected_ = refDropgsw(AlignProblem{&f.a, &f.b, &f.m, f.gap});
    }

    void
    reset()
    {
        const Fixture &f = fx();
        uint64_t cursor = kDataBase;
        auto put = [&](const void *src, size_t len) {
            uint64_t addr = cursor;
            mem_.writeBlock(addr, src, len);
            cursor = (cursor + len + 7) & ~7ULL;
            return addr;
        };
        std::vector<int32_t> matrix;
        const unsigned n = bio::SubstitutionMatrix::kMaxResidues;
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                bool in = i < f.m.size() && j < f.m.size();
                matrix.push_back(in ? f.m.score(i, j) : 0);
            }
        }
        std::vector<uint8_t> row((f.b.size() + 1) * 8, 0);
        const int64_t gap[] = {f.gap.open, f.gap.extend};

        state_ = sim::CoreState();
        state_.pc = kCodeBase;
        state_.gpr[1] = kStackTop;
        const uint64_t args[] = {
            put(f.a.codes().data(), f.a.size()), f.a.size(),
            put(f.b.codes().data(), f.b.size()), f.b.size(),
            put(matrix.data(), matrix.size() * 4),
            put(row.data(), row.size()), put(row.data(), row.size()),
            put(gap, sizeof(gap))};
        for (size_t i = 0; i < std::size(args); ++i)
            state_.gpr[3 + i] = args[i];
    }

    /** Abort the benchmark if a pass did not compute the kernel. */
    void
    check(benchmark::State &state, bool halted) const
    {
        if (!halted || int64_t(state_.gpr[3]) != expected_)
            state.SkipWithError("Dropgsw result differs from reference");
    }

    sim::Executor &exec() { return exec_; }

  private:
    sim::Memory mem_;
    sim::CoreState state_;
    sim::Executor exec_;
    int64_t expected_ = 0;
};

/** Report host time per simulated instruction (s/inst, SI-scaled). */
void
reportPerInstruction(benchmark::State &state, const sim::Counters &c)
{
    state.SetItemsProcessed(int64_t(c.instructions));
    state.counters["time/inst"] = benchmark::Counter(
        double(c.instructions),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/**
 * Executor::runHooked() with a hook that only counts instructions: the
 * functional half of the timing model's per-instruction cost (the
 * timing hook adds scheduleInstruction).  Same kernel and instruction
 * count as BM_ExecutorRunFast.
 */
void
BM_ExecutorTimed(benchmark::State &state)
{
    ExecutorRig rig;
    sim::Counters c;
    auto hook = [&c](const sim::MicroOp &, uint64_t, const sim::FastCtx &) {
        ++c.instructions;
    };
    for (auto _ : state) {
        state.PauseTiming();
        rig.reset();
        state.ResumeTiming();
        rig.check(state, rig.exec().runHooked(UINT64_MAX, c, hook).halted);
    }
    reportPerInstruction(state, c);
}
BENCHMARK(BM_ExecutorTimed)->Unit(benchmark::kMicrosecond);

/** Executor::runFast(): the compiled-engine loop of functional runs. */
void
BM_ExecutorRunFast(benchmark::State &state)
{
    ExecutorRig rig;
    sim::Counters c;
    for (auto _ : state) {
        state.PauseTiming();
        rig.reset();
        state.ResumeTiming();
        rig.check(state, rig.exec().runFast(UINT64_MAX, c).halted);
    }
    reportPerInstruction(state, c);
}
BENCHMARK(BM_ExecutorRunFast)->Unit(benchmark::kMicrosecond);

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
        else if (std::strncmp(argv[i], "--budget=", 9) == 0 &&
                 !parseNumber(argv[i] + 9, budget)) {
            std::fprintf(stderr, "bad value in '%s'\n", argv[i]);
            return 1;
        }
    }
    if (json)
        return jsonMain(budget);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
