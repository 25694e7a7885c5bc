/**
 * @file
 * Differential tests of the simulator's execution engine against the
 * reference interpreter in tests/ref_interp (a separately written,
 * decode-every-step switch over the ISA).  In functional, full-timing
 * and warmed sampled runs the machine must retire the reference's
 * architectural state, console output, exit code and architectural
 * counters, on hand-written masm programs, on randomly generated masm
 * programs, and on a program that runs code copied outside its image.
 * The application kernels cannot run on the reference (they need the
 * KernelMachine bridge), so there the timed and sampled totals are
 * held to the functional ones.  Also regression tests for the micro-op
 * image lifecycle: reload at the same base must rebuild micro-ops, and
 * reset() must reproduce a fresh machine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "isa/encode.h"
#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "ref_interp.h"
#include "sim/machine.h"
#include "workloads/workload.h"

using namespace bp5;

namespace {

/** How the machine runs a program. */
enum class Mode
{
    Functional, ///< runFunctional()
    Timed,      ///< run(), full detail
    Sampled,    ///< run() with warmed SMARTS sampling
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Functional: return "functional";
      case Mode::Timed: return "timed";
      case Mode::Sampled: return "sampled";
    }
    return "?";
}

constexpr uint64_t kMaxInstructions = 2'000'000;
constexpr uint64_t kStackTop = 0x700000; // unused by these programs

/** Architectural outcome of a run: the fields both engines produce. */
struct ArchRun
{
    bool halted = false;
    int64_t exitCode = 0;
    std::string console;
    sim::Counters counters;
    sim::CoreState state;
    uint64_t windows = 0; ///< sampled-run measurement windows
};

ArchRun
runMachine(const masm::Program &prog, Mode mode,
           const sim::MachineConfig &cfg, const sim::SamplingParams &sp)
{
    sim::Machine m(cfg);
    if (mode == Mode::Sampled)
        m.setSampling(sp);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    m.state().gpr[1] = kStackTop;
    sim::RunResult r = mode == Mode::Functional
                           ? m.runFunctional(kMaxInstructions)
                           : m.run(kMaxInstructions);
    if (mode == Mode::Sampled) {
        EXPECT_TRUE(r.sampled);
    }
    return {r.halted, r.exitCode, r.console, r.counters, m.state(),
            r.sampling.windows};
}

ArchRun
runReference(const masm::Program &prog)
{
    sim::Memory mem;
    sim::CoreState st;
    mem.writeBlock(prog.base, prog.image.data(), prog.image.size());
    st.pc = prog.base;
    st.gpr[1] = kStackTop;
    testref::RefResult r = testref::RefInterp(st, mem).run(kMaxInstructions);
    return {r.halted, r.exitCode, r.console, r.counters, st, 0};
}

/** Architectural counters: exact in every mode. */
void
expectSameArchCounters(const sim::Counters &a, const sim::Counters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.opCount, b.opCount);
}

void
expectSameArch(const ArchRun &a, const ArchRun &b)
{
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.console, b.console);
    expectSameArchCounters(a.counters, b.counters);
    EXPECT_EQ(a.state.gpr, b.state.gpr);
    EXPECT_EQ(a.state.cr, b.state.cr);
    EXPECT_EQ(a.state.lr, b.state.lr);
    EXPECT_EQ(a.state.ctr, b.state.ctr);
    EXPECT_EQ(a.state.xer, b.state.xer);
    EXPECT_EQ(a.state.pc, b.state.pc);
}

/**
 * Assemble @p src and require the machine in each of @p modes to match
 * the reference interpreter.  A functional run has no timing counters
 * at all, so there the whole Counters must match.
 */
void
expectMatchesReference(const std::string &src,
                       std::initializer_list<Mode> modes,
                       const sim::MachineConfig &cfg = sim::MachineConfig(),
                       const sim::SamplingParams &sp = {50, 150, true})
{
    masm::Program p;
    try {
        p = masm::assemble(src);
    } catch (const masm::AsmError &e) {
        FAIL() << "asm error at line " << e.line << ": " << e.message;
    }
    ArchRun ref = runReference(p);
    EXPECT_TRUE(ref.halted) << "program did not halt:\n" << src;
    for (Mode mode : modes) {
        SCOPED_TRACE(modeName(mode));
        ArchRun run = runMachine(p, mode, cfg, sp);
        expectSameArch(run, ref);
        if (mode == Mode::Functional) {
            EXPECT_EQ(run.counters, ref.counters);
        }
    }
}

// --------------------------------------------------------------------
// Hand-written battery: each program leans on one corner of the ISA.
// --------------------------------------------------------------------

/// Counted loop + PUTINT/PUTC syscalls (console must match exactly).
const char *kFibSrc = R"(
        li      r14, 0
        li      r15, 1
        li      r16, 12
        mtctr   r16
loop:
        add     r17, r14, r15
        mr      r14, r15
        mr      r15, r17
        mr      r3, r14
        li      r0, 2
        sc
        li      r3, 32
        li      r0, 1
        sc
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

/// bl/blr, mflr-computed indirect bctr, CR logic, mfcr.
const char *kControlSrc = R"(
        li      r20, 5
        li      r21, 9
        bl      addsub
        mr      r22, r3
        bl      getpc
getpc:
        mflr    r12
        addi    r12, r12, 16
        mtctr   r12
        bctr
        li      r22, -1        # skipped by bctr
        li      r23, 77        # bctr target (getpc+16)
        cmpd    cr1, r20, r21
        cmpd    cr2, r21, r20
        crand   2, 4, 9        # cr0.eq = cr1.lt & cr2.gt
        cror    3, 4, 5
        crxor   16, 4, 8
        crnor   17, 2, 3
        mfcr    r24
        mr      r3, r24
        li      r0, 3
        sc
        li      r0, 0
        li      r3, 42
        sc
addsub:
        add     r3, r20, r21
        subf    r3, r20, r3
        blr
)";

/// Record forms, compares, isel, max/min, shift and divide edge cases.
const char *kAluEdgeSrc = R"(
        li      r14, -7
        li      r15, 3
        divd    r16, r14, r15
        li      r17, 0
        divd    r18, r14, r17     # divide by zero -> 0
        divdu   r19, r14, r15
        addis   r20, r0, -32768
        sldi    r20, r20, 32      # r20 = INT64_MIN
        li      r21, -1
        divd    r22, r20, r21     # overflow -> 0
        divdu   r23, r20, r17     # unsigned /0 -> 0
        add.    r24, r14, r15
        andi.   r25, r14, 255
        cmpd    cr2, r14, r15
        isel    r26, r14, r15, 8  # cr2.lt
        max     r27, r14, r15
        min     r28, r14, r15
        srad    r29, r20, r21     # shift >= 64 -> sign fill
        sld     r30, r15, r21     # shift >= 64 -> 0
        cntlzd  r31, r15
        sradi   r10, r20, 63
        neg.    r11, r20          # INT64_MIN negates to itself
        mfcr    r3
        li      r0, 3
        sc
        mr      r3, r24
        li      r0, 0
        sc
)";

/// Loads/stores of every width, indexed forms, sign extension,
/// negative displacements, and a load from a never-written page.
const char *kMemorySrc = R"(
        addis   r13, r0, 0x40         # scratch at 0x400000
        addis   r14, r0, 0x1234
        ori     r14, r14, 0x5678
        neg     r15, r14
        std     r15, 0(r13)
        stw     r15, 8(r13)
        sth     r15, 16(r13)
        stb     r15, 24(r13)
        ld      r16, 0(r13)
        lwz     r17, 8(r13)
        lwa     r18, 8(r13)
        lhz     r19, 16(r13)
        lha     r20, 16(r13)
        lbz     r21, 24(r13)
        li      r12, 40
        stdx    r14, r13, r12
        ldx     r22, r13, r12
        lwzx    r23, r13, r12
        addi    r13, r13, 64
        ld      r24, -64(r13)
        lwz     r25, -56(r13)
        addis   r26, r0, 0x60         # 0x600000: never written -> reads 0
        ld      r27, 0(r26)
        lbz     r28, 5(r26)
        mr      r3, r16
        li      r0, 3
        sc
        li      r0, 0
        li      r3, 0
        sc
)";

/// addis/oris/xori immediates, bdz loop shape, store-then-reload.
const char *kImmLoopSrc = R"(
        addis   r14, r0, 1        # 0x10000
        oris    r14, r14, 0x2
        xori    r14, r14, 0x5a5a
        li      r12, 3
        mtctr   r12
again:
        addi    r15, r15, 7
        mulli   r16, r15, 3
        bdz     done
        b       again
done:
        addis   r13, r0, 0x41
        std     r16, 0(r13)
        ld      r17, 0(r13)
        mr      r3, r17
        li      r0, 2
        sc
        li      r0, 0
        mr      r3, r15
        sc
)";

TEST(EngineDiff, MasmBatteryFunctional)
{
    for (const char *src :
         {kFibSrc, kControlSrc, kAluEdgeSrc, kMemorySrc, kImmLoopSrc})
        expectMatchesReference(src, {Mode::Functional});
}

/// The timing model retires through the hooked executor loop: full-detail
/// and warmed sampled runs must retire the reference's architecture too.
TEST(EngineDiff, MasmBatteryTimed)
{
    for (const char *src :
         {kFibSrc, kControlSrc, kAluEdgeSrc, kMemorySrc, kImmLoopSrc}) {
        expectMatchesReference(src, {Mode::Timed, Mode::Sampled});
        expectMatchesReference(src, {Mode::Timed, Mode::Sampled},
                               sim::MachineConfig::power5WithBtac());
    }
}

// --------------------------------------------------------------------
// Random masm fuzz.
// --------------------------------------------------------------------

struct Rng
{
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed ? seed : 0x9e3779b97f4a7c15) {}
    uint64_t next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    uint64_t below(uint64_t n) { return next() % n; }
    int64_t simm16() { return int64_t(next() % 0x10000) - 0x8000; }
    uint64_t uimm16() { return next() % 0x10000; }
};

/**
 * Emit a random but always-terminating masm program: a seeded register
 * pool, straight-line ALU/memory traffic with record forms, short
 * counted loops, forward conditional hammocks, calls to a leaf
 * subroutine, then a PUTHEX dump of the whole pool and a checksum
 * exit.  Everything architecturally visible lands in the console or
 * the exit code, so a single comparison covers the full pool.
 */
std::string
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    const int kPoolLo = 14, kPoolHi = 25; // r14..r25
    auto reg = [&] {
        return "r" + std::to_string(kPoolLo +
                                    int(rng.below(kPoolHi - kPoolLo + 1)));
    };

    std::string s;
    auto emit = [&](const std::string &ln) { s += "        " + ln + "\n"; };

    emit("addis r13, r0, 0x40"); // scratch base 0x400000
    for (int r = kPoolLo; r <= kPoolHi; ++r) {
        std::string rn = "r" + std::to_string(r);
        emit("addis " + rn + ", r0, " + std::to_string(rng.simm16()));
        emit("ori " + rn + ", " + rn + ", " + std::to_string(rng.uimm16()));
    }

    int label = 0;
    const int kBodyOps = 120;
    for (int i = 0; i < kBodyOps; ++i) {
        switch (rng.below(10)) {
          case 0:
          case 1: { // three-register ALU, sometimes record form
            static const char *ops[] = {"add",  "subf", "mulld", "divd",
                                        "divdu", "and",  "or",    "xor",
                                        "nor",  "nand", "eqv",   "andc",
                                        "orc",  "sld",  "srd",   "srad"};
            std::string op = ops[rng.below(16)];
            if (rng.below(4) == 0)
                op += ".";
            emit(op + " " + reg() + ", " + reg() + ", " + reg());
            break;
          }
          case 2: { // unary
            static const char *ops[] = {"neg", "extsb", "extsh", "extsw",
                                        "cntlzd"};
            emit(std::string(ops[rng.below(5)]) + " " + reg() + ", " +
                 reg());
            break;
          }
          case 3: { // shift-immediate
            static const char *ops[] = {"sldi", "srdi", "sradi"};
            emit(std::string(ops[rng.below(3)]) + " " + reg() + ", " +
                 reg() + ", " + std::to_string(rng.below(64)));
            break;
          }
          case 4: { // D-form immediate
            static const char *ops[] = {"addi", "mulli", "ori",  "xori",
                                        "andi.", "addis", "oris"};
            std::string op = ops[rng.below(7)];
            bool sgn = op == "addi" || op == "mulli" || op == "addis";
            emit(op + " " + reg() + ", " + reg() + ", " +
                 std::to_string(sgn ? rng.simm16()
                                    : int64_t(rng.uimm16())));
            break;
          }
          case 5: { // max/min
            emit(std::string(rng.below(2) ? "max" : "min") + " " + reg() +
                 ", " + reg() + ", " + reg());
            break;
          }
          case 6: { // compare + isel
            emit(std::string(rng.below(2) ? "cmpd" : "cmpld") + " cr" +
                 std::to_string(rng.below(4)) + ", " + reg() + ", " +
                 reg());
            emit("isel " + reg() + ", " + reg() + ", " + reg() + ", " +
                 std::to_string(rng.below(16)));
            break;
          }
          case 7: { // forward conditional hammock
            static const char *br[] = {"beq", "bne", "blt",
                                       "bgt", "ble", "bge"};
            std::string l = "L" + std::to_string(label++);
            emit("cmpdi " + reg() + ", " + std::to_string(rng.simm16()));
            emit(std::string(br[rng.below(6)]) + " " + l);
            int n = 1 + int(rng.below(3));
            for (int k = 0; k < n; ++k)
                emit("addi " + reg() + ", " + reg() + ", " +
                     std::to_string(rng.simm16()));
            s += l + ":\n";
            break;
          }
          case 8: { // short counted loop
            std::string l = "L" + std::to_string(label++);
            emit("li r12, " + std::to_string(1 + rng.below(6)));
            emit("mtctr r12");
            s += l + ":\n";
            emit("add " + reg() + ", " + reg() + ", " + reg());
            emit("xor " + reg() + ", " + reg() + ", " + reg());
            emit("bdnz " + l);
            break;
          }
          default: { // memory round trip through the scratch page
            static const struct { const char *st, *ld; unsigned align; }
            widths[] = {{"std", "ld", 8},
                        {"stw", "lwa", 4},
                        {"sth", "lha", 2},
                        {"stb", "lbz", 1}};
            auto &w = widths[rng.below(4)];
            uint64_t off = rng.below(512 / w.align) * w.align;
            if (rng.below(4) == 0) { // indexed form
                emit("li r12, " + std::to_string(off));
                emit("stdx " + reg() + ", r13, r12");
                emit("ldx " + reg() + ", r13, r12");
            } else {
                emit(std::string(w.st) + " " + reg() + ", " +
                     std::to_string(off) + "(r13)");
                emit(std::string(w.ld) + " " + reg() + ", " +
                     std::to_string(off) + "(r13)");
            }
            break;
          }
        }
        if (rng.below(16) == 0)
            emit("bl leaf");
    }

    // Dump the pool, exit with a checksum.
    for (int r = kPoolLo; r <= kPoolHi; ++r) {
        emit("mr r3, r" + std::to_string(r));
        emit("li r0, 3");
        emit("sc");
    }
    emit("mr r3, r" + std::to_string(kPoolLo));
    for (int r = kPoolLo + 1; r <= kPoolHi; ++r)
        emit("xor r3, r3, r" + std::to_string(r));
    emit("li r0, 0");
    emit("sc");
    s += "leaf:\n";
    emit("add r14, r14, r15");
    emit("xor r15, r15, r14");
    emit("blr");
    return s;
}

TEST(EngineDiff, RandomMasmFuzzFunctional)
{
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectMatchesReference(randomProgram(seed), {Mode::Functional});
    }
}

TEST(EngineDiff, RandomMasmFuzzTimed)
{
    for (uint64_t seed = 25; seed <= 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectMatchesReference(randomProgram(seed),
                               {Mode::Timed, Mode::Sampled},
                               sim::MachineConfig::power5WithBtac());
    }
}

// --------------------------------------------------------------------
// Application kernels: the timing model must retire the same stream.
// --------------------------------------------------------------------

TEST(EngineDiff, AppsMatchLegacyEngine)
{
    using namespace bp5::kernels;
    for (workloads::App app :
         {workloads::App::Blast, workloads::App::Clustalw,
          workloads::App::Fasta, workloads::App::Hmmer}) {
        SCOPED_TRACE(workloads::appName(app));
        workloads::WorkloadConfig wc;
        wc.app = app;
        wc.simInstructionBudget = 200'000;
        workloads::Workload w(wc);

        KernelMachine timed(workloads::appKernel(app),
                            mpc::Variant::Baseline, sim::MachineConfig());
        KernelMachine functional(workloads::appKernel(app),
                                 mpc::Variant::Baseline,
                                 sim::MachineConfig());
        functional.setFunctionalOnly(true);
        KernelMachine sampled(workloads::appKernel(app),
                              mpc::Variant::Baseline, sim::MachineConfig());
        sampled.setSampling({2'000, 8'000, true});

        // run() validates each invocation against the native reference
        // internally; equal architectural totals then show the timed
        // and sampled runs retired the functional run's stream.
        workloads::SimResult rf = w.simulate(functional);
        workloads::SimResult rt = w.simulate(timed);
        workloads::SimResult rs = w.simulate(sampled);
        EXPECT_EQ(rt.invocations, rf.invocations);
        EXPECT_EQ(rs.invocations, rf.invocations);
        EXPECT_GT(timed.totals().cycles, 0u);
        EXPECT_EQ(functional.totals().cycles, 0u);
        expectSameArchCounters(timed.totals(), functional.totals());
        expectSameArchCounters(sampled.totals(), functional.totals());
    }
}

// --------------------------------------------------------------------
// Micro-op image lifecycle.
// --------------------------------------------------------------------

/// Loading a different program at the same base must rebuild the
/// micro-op image (no stale decoded ops may survive).
TEST(EngineDiff, ReloadAtSameBaseRebuildsImage)
{
    masm::Program a = masm::assemble(kAluEdgeSrc);
    masm::Program b = masm::assemble(kFibSrc);
    ASSERT_EQ(a.base, b.base);

    sim::Machine m;
    m.loadProgram(a);
    m.state().pc = a.base;
    m.runFunctional(2'000'000);

    m.reset();
    m.loadProgram(b);
    m.state().pc = b.base;
    sim::RunResult reloaded = m.runFunctional(2'000'000);

    sim::Machine fresh;
    fresh.loadProgram(b);
    fresh.state().pc = b.base;
    sim::RunResult direct = fresh.runFunctional(2'000'000);

    EXPECT_TRUE(reloaded.halted);
    EXPECT_EQ(reloaded.exitCode, direct.exitCode);
    EXPECT_EQ(reloaded.console, direct.console);
    EXPECT_EQ(reloaded.counters, direct.counters);
}

/// Per-workload regression: reset() must reproduce a fresh machine
/// exactly even though the pre-decoded image persists across it.
TEST(EngineDiff, ResetEqualsFreshPerWorkload)
{
    using namespace bp5::kernels;
    for (workloads::App app :
         {workloads::App::Blast, workloads::App::Clustalw,
          workloads::App::Fasta, workloads::App::Hmmer}) {
        SCOPED_TRACE(workloads::appName(app));
        workloads::WorkloadConfig wc;
        wc.app = app;
        wc.simInstructionBudget = 150'000;
        workloads::Workload w(wc);

        KernelMachine km(workloads::appKernel(app),
                         mpc::Variant::Baseline, sim::MachineConfig());
        w.simulate(km);
        sim::Counters first = km.totals();
        km.reset();
        w.simulate(km);
        EXPECT_EQ(km.totals(), first);
    }
}

// --------------------------------------------------------------------
// Out-of-image code: the pc handoff between runFast's micro-op loop
// and per-step execution.
// --------------------------------------------------------------------

/// Round trips through the out-of-image stub, and the exit code the
/// program then reports (each trip adds 5+4+3+2+1 to r20).
constexpr int kOutOfImageTrips = 300;
constexpr int64_t kOutOfImageExit = 15 * kOutOfImageTrips;

/**
 * A program that copies a stub (carried as data words in its own
 * image, so never decoded there) to 0x500000, outside the image, then
 * calls it kOutOfImageTrips times: bl to a trampoline that jumps in
 * with bctr; the stub runs a bdnz loop with a store and a load, and
 * blr branches back into the image.
 */
std::string
outOfImageProgram()
{
    using namespace isa;
    const std::vector<Inst> stub = {
        mkLi(22, 5),
        mkMtspr(SPR_CTR, 22),
        mkX(Op::ADD, 20, 20, 22), // loop:
        mkD(Op::STD, 20, 12, 64),
        mkD(Op::LD, 23, 12, 64),
        mkD(Op::ADDI, 22, 22, -1),
        mkBc(BO_DNZ, 0, -16),     // bdnz loop
        mkBclr(),                 // blr: back into the image
    };
    std::string words;
    for (const Inst &i : stub)
        words += "        .word " + std::to_string(encode(i)) + "\n";
    return R"(
        addis   r12, r0, 0x50     # stub lives at 0x500000
        bl      past              # LR = address of the stub words
)" + words + R"(
past:
        mflr    r14
        li      r15, )" + std::to_string(stub.size()) + R"(
        mtctr   r15
        mr      r16, r12
copy:
        lwz     r17, 0(r14)
        stw     r17, 0(r16)
        addi    r14, r14, 4
        addi    r16, r16, 4
        bdnz    copy
        li      r20, 0
        li      r21, )" + std::to_string(kOutOfImageTrips) + R"(
again:
        bl      call              # LR = back
back:
        addi    r21, r21, -1
        cmpdi   r21, 0
        bne     again
        mr      r3, r20
        li      r0, 0
        sc
call:
        mtctr   r12
        bctr
)";
}

TEST(EngineDiff, OutOfImageRoundTrip)
{
    masm::Program p = masm::assemble(outOfImageProgram());
    ArchRun ref = runReference(p);
    ASSERT_TRUE(ref.halted);
    EXPECT_EQ(ref.exitCode, kOutOfImageExit);

    // Every mode against the reference; the sampled windows are short
    // enough that the stub runs both in windows and in fast-forward.
    for (Mode mode : {Mode::Functional, Mode::Timed, Mode::Sampled}) {
        SCOPED_TRACE(modeName(mode));
        ArchRun run = runMachine(p, mode,
                                 sim::MachineConfig::power5WithBtac(),
                                 {200, 800, true});
        expectSameArch(run, ref);
        if (mode == Mode::Sampled) {
            EXPECT_GT(run.windows, 1u);
        }
    }
}

} // namespace
