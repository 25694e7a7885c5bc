/**
 * @file
 * IR-level analysis tests: must-accessed-address proofs for
 * speculative loads, store-merging if-conversion, natural-loop / trip
 * count analysis, and differential tests that unrolled code is
 * bit-identical to the rolled original (registers AND memory).
 */

#include <gtest/gtest.h>

#include "bio/generator.h"
#include "ir_interp.h"
#include "kernels/kernels.h"
#include "mpc/compiler.h"
#include "mpc/loops.h"
#include "sim/machine.h"

namespace bp5::mpc {
namespace {

// --------------------------------------------------------------------
// Must-accessed addresses / proveSafeLoads.
// --------------------------------------------------------------------

/** fn(p, a, b): v = mem[p]; if (a < b) v = mem[p]; return v.
 *  The hammock load re-reads a dominating address. */
Function
makeDominatedLoadHammock()
{
    Function fn;
    fn.name = "dominated_load";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int then = b.newBlock("then");
    int join = b.newBlock("join");
    b.setBlock(entry);
    VReg v = b.load(0, 0, 8, true, /*safe=*/false);
    b.br(Cond::LT, 1, 2, then, join);
    b.setBlock(then);
    b.copyTo(v, b.load(0, 0, 8, true, /*safe=*/false));
    b.jump(join);
    b.setBlock(join);
    b.ret(v);
    return fn;
}

TEST(ProveSafe, DominatingAccessProvesHammockLoad)
{
    Function fn = makeDominatedLoadHammock();
    ProveStats st = proveSafeLoads(fn);
    EXPECT_EQ(st.candidates, 2u);
    EXPECT_EQ(st.alreadySafe, 0u);
    EXPECT_GE(st.proved, 1u); // at least the hammock load
    // The hammock load (block "then") must now carry the safe bit.
    bool hammockSafe = false;
    for (const IrInst &i : fn.blocks[1].insts) {
        if (i.op == IrOp::Load)
            hammockSafe = i.safe;
    }
    EXPECT_TRUE(hammockSafe);
}

TEST(ProveSafe, ProofEnablesIfConversion)
{
    CompileOptions opts;
    opts.ifConvert = true;
    Compiled plain = compile(makeDominatedLoadHammock(), opts);
    EXPECT_EQ(plain.ifc.converted, 0u);
    EXPECT_GE(plain.ifc.rejectedUnsafe, 1u);

    opts.proveSafe = true;
    Compiled proven = compile(makeDominatedLoadHammock(), opts);
    EXPECT_GE(proven.prove.proved, 1u);
    EXPECT_EQ(proven.ifc.converted, 1u);
    EXPECT_EQ(proven.ifc.rejectedUnsafe, 0u);
}

TEST(ProveSafe, RedefinedBaseKillsTheFact)
{
    // fn(p, a, b): v = mem[p]; p += 8; if (a < b) v = mem[p]; ...
    Function fn;
    fn.name = "killed_base";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int then = b.newBlock("then");
    int join = b.newBlock("join");
    b.setBlock(entry);
    VReg v = b.load(0, 0, 8, true, false);
    b.copyTo(0, b.addi(0, 8)); // p now points elsewhere
    b.br(Cond::LT, 1, 2, then, join);
    b.setBlock(then);
    b.copyTo(v, b.load(0, 0, 8, true, false));
    b.jump(join);
    b.setBlock(join);
    b.ret(v);

    ProveStats st = proveSafeLoads(fn);
    EXPECT_EQ(st.proved, 0u);
}

TEST(ProveSafe, WiderAccessNotProvenByNarrower)
{
    // A 4-byte dominating load must not prove an 8-byte speculative
    // load at the same address.
    Function fn;
    fn.name = "narrow";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int then = b.newBlock("then");
    int join = b.newBlock("join");
    b.setBlock(entry);
    VReg v = b.load(0, 0, 4, true, false);
    b.br(Cond::LT, 1, 2, then, join);
    b.setBlock(then);
    b.copyTo(v, b.load(0, 0, 8, true, false));
    b.jump(join);
    b.setBlock(join);
    b.ret(v);

    ProveStats st = proveSafeLoads(fn);
    EXPECT_EQ(st.proved, 0u);
}

// --------------------------------------------------------------------
// Store-merging if-conversion.
// --------------------------------------------------------------------

/** fn(p, a, b): if (a < b) mem[p] = a + 1; else mem[p] = b * 3; ret 0 */
Function
makeStoreDiamond()
{
    Function fn;
    fn.name = "store_diamond";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int t = b.newBlock("t");
    int f = b.newBlock("f");
    int join = b.newBlock("join");
    b.setBlock(entry);
    b.br(Cond::LT, 1, 2, t, f);
    b.setBlock(t);
    b.store(b.addi(1, 1), 0, 0);
    b.jump(join);
    b.setBlock(f);
    b.store(b.muli(2, 3), 0, 0);
    b.jump(join);
    b.setBlock(join);
    b.ret(1);
    return fn;
}

int64_t
runOnSim(const Compiled &c, const std::vector<int64_t> &args,
         sim::Machine &m)
{
    masm::Program p = c.program(0x10000);
    m.loadProgram(p);
    m.state().pc = p.base;
    m.state().gpr[1] = 0x100000;
    for (size_t i = 0; i < args.size(); ++i)
        m.state().gpr[3 + i] = static_cast<uint64_t>(args[i]);
    sim::RunResult r = m.runFunctional(10'000'000);
    EXPECT_TRUE(r.halted);
    return r.exitCode;
}

TEST(StoreMerge, DiamondMergesAndStaysBitIdentical)
{
    CompileOptions opts;
    opts.ifConvert = true;
    Compiled plain = compile(makeStoreDiamond(), opts);
    EXPECT_EQ(plain.ifc.converted, 0u);
    EXPECT_EQ(plain.ifc.mergedStores, 0u);

    opts.ifcOpts.mergeStores = true;
    Compiled merged = compile(makeStoreDiamond(), opts);
    EXPECT_EQ(merged.ifc.converted, 1u);
    EXPECT_EQ(merged.ifc.mergedStores, 1u);
    // The merged build has no conditional branch left.
    EXPECT_LT(merged.cg.branchesEmitted, plain.cg.branchesEmitted);

    const uint64_t kPtr = 0x40000;
    const std::vector<std::pair<int64_t, int64_t>> cases{
        {3, 9}, {9, 3}, {5, 5}, {-4, -2}};
    for (auto [a, bb] : cases) {
        sim::Machine m1, m2;
        int64_t r1 = runOnSim(plain, {int64_t(kPtr), a, bb}, m1);
        int64_t r2 = runOnSim(merged, {int64_t(kPtr), a, bb}, m2);
        EXPECT_EQ(r1, r2);
        EXPECT_EQ(m1.mem().readU64(kPtr), m2.mem().readU64(kPtr))
            << "a=" << a << " b=" << bb;
    }
}

TEST(StoreMerge, MismatchedAddressesNotMerged)
{
    // Arms store to p+0 and p+8: must stay branchy.
    Function fn;
    fn.name = "mismatch";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int t = b.newBlock("t");
    int f = b.newBlock("f");
    int join = b.newBlock("join");
    b.setBlock(entry);
    b.br(Cond::LT, 1, 2, t, f);
    b.setBlock(t);
    b.store(1, 0, 0);
    b.jump(join);
    b.setBlock(f);
    b.store(2, 0, 8);
    b.jump(join);
    b.setBlock(join);
    b.ret(1);

    CompileOptions opts;
    opts.ifConvert = true;
    opts.ifcOpts.mergeStores = true;
    Compiled c = compile(std::move(fn), opts);
    EXPECT_EQ(c.ifc.mergedStores, 0u);
}

TEST(StoreMerge, StoreNotLastInArmNotMerged)
{
    // The then-arm loads *after* its store (could observe the value):
    // merging would reorder the store past the load.
    Function fn;
    fn.name = "store_then_load";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int t = b.newBlock("t");
    int f = b.newBlock("f");
    int join = b.newBlock("join");
    b.setBlock(entry);
    VReg v = b.iconst(0);
    b.br(Cond::LT, 1, 2, t, f);
    b.setBlock(t);
    b.store(1, 0, 0);
    b.copyTo(v, b.load(0, 0, 8, true, false));
    b.jump(join);
    b.setBlock(f);
    b.store(2, 0, 0);
    b.jump(join);
    b.setBlock(join);
    b.ret(v);

    CompileOptions opts;
    opts.ifConvert = true;
    opts.ifcOpts.mergeStores = true;
    Compiled c = compile(std::move(fn), opts);
    EXPECT_EQ(c.ifc.mergedStores, 0u);
}

// --------------------------------------------------------------------
// Natural loops and trip counts (IR level).
// --------------------------------------------------------------------

/** Rotated do-while: i = 0; do { mem[q] += i; i++ } while (i < n). */
Function
makeCountedLoop(int64_t init, int64_t limitConst)
{
    Function fn;
    fn.name = "counted";
    IrBuilder b(fn);
    b.declareArgs(1); // q
    int entry = b.newBlock("entry");
    int head = b.newBlock("head");
    int done = b.newBlock("done");
    b.setBlock(entry);
    VReg i = b.iconst(init);
    VReg n = b.iconst(limitConst);
    b.jump(head);
    b.setBlock(head);
    VReg cur = b.load(0, 0, 8, true, true);
    b.store(b.add(cur, i), 0, 0);
    b.copyTo(i, b.addi(i, 1));
    b.br(Cond::LT, i, n, head, done);
    b.setBlock(done);
    b.ret(i);
    return fn;
}

TEST(IrLoops, DetectsCountedShapeAndTripCount)
{
    Function fn = makeCountedLoop(0, 10);
    IrLoopForest forest = findLoops(fn);
    ASSERT_EQ(forest.loops.size(), 1u);
    const IrLoop &l = forest.loops[0];
    EXPECT_EQ(l.header, 1);
    EXPECT_TRUE(l.hasCountedShape);
    EXPECT_EQ(l.step, 1);
    EXPECT_EQ(l.tripCount, 10);
}

TEST(IrLoops, TripCountHonorsStepAndCond)
{
    // i = 2; do { ... i += 1 } while (i < 11): iterations 2..10 -> 9.
    Function fn = makeCountedLoop(2, 11);
    IrLoopForest forest = findLoops(fn);
    ASSERT_EQ(forest.loops.size(), 1u);
    EXPECT_EQ(forest.loops[0].tripCount, 9);
}

// --------------------------------------------------------------------
// Loop unrolling: differential, registers AND memory.
// --------------------------------------------------------------------

/** fn(p, n, q): sum the n doublewords at p (rotated do-while guarded
 *  by an entry test), store the running sum to q each iteration. */
Function
makeSumKernel()
{
    Function fn;
    fn.name = "sumk";
    IrBuilder b(fn);
    b.declareArgs(3);
    int entry = b.newBlock("entry");
    int head = b.newBlock("head");
    int done = b.newBlock("done");
    b.setBlock(entry);
    VReg sum = b.iconst(0);
    VReg i = b.iconst(0);
    b.br(Cond::LT, i, 1, head, done);
    b.setBlock(head);
    VReg v = b.loadx(0, b.shli(i, 3));
    b.copyTo(sum, b.add(sum, v));
    b.store(sum, 2, 0);
    b.copyTo(i, b.addi(i, 1));
    b.br(Cond::LT, i, 1, head, done);
    b.setBlock(done);
    b.ret(sum);
    return fn;
}

TEST(Unroll, StatsAndNoOpFactors)
{
    Function fn = makeSumKernel();
    UnrollOptions u0;
    EXPECT_EQ(unrollLoops(fn, u0).unrolled, 0u); // factor 0: off
    u0.factor = 4;
    UnrollStats st = unrollLoops(fn, u0);
    EXPECT_EQ(st.unrolled, 1u);
    fn.verify(); // the rewritten CFG must still be well-formed
}

TEST(Unroll, BitIdenticalAcrossFactorsAndTripCounts)
{
    const uint64_t kArr = 0x40000, kOut = 0x50000;
    for (unsigned factor : {2u, 3u, 4u}) {
        for (int64_t n : {0, 1, 2, 3, 7, 8, 16}) {
            Function rolled = makeSumKernel();
            Function unrolled = makeSumKernel();
            UnrollOptions uo;
            uo.factor = factor;
            UnrollStats st = unrollLoops(unrolled, uo);
            ASSERT_EQ(st.unrolled, 1u);
            unrolled.verify();

            sim::Memory m1, m2;
            for (int64_t k = 0; k < n; ++k) {
                uint64_t val = static_cast<uint64_t>(k * 7 - 3);
                m1.writeU64(kArr + 8 * static_cast<uint64_t>(k), val);
                m2.writeU64(kArr + 8 * static_cast<uint64_t>(k), val);
            }
            std::vector<int64_t> args{int64_t(kArr), n, int64_t(kOut)};
            InterpResult r1 = interpret(rolled, args, m1);
            InterpResult r2 = interpret(unrolled, args, m2);
            ASSERT_TRUE(r1.finished && r2.finished);
            EXPECT_EQ(r1.value, r2.value)
                << "factor=" << factor << " n=" << n;
            EXPECT_EQ(m1.readU64(kOut), m2.readU64(kOut));
        }
    }
}

TEST(Unroll, CompiledUnrolledMatchesInterpreterOracle)
{
    // Full pipeline: unroll + regalloc + codegen + simulator vs the
    // IR interpreter on the rolled original.
    const uint64_t kArr = 0x40000, kOut = 0x50000;
    CompileOptions opts;
    opts.unrollFactor = 4;
    Compiled c = compile(makeSumKernel(), opts);
    EXPECT_EQ(c.unroll.unrolled, 1u);

    for (int64_t n : {0, 1, 3, 5, 8, 13}) {
        sim::Memory ref;
        sim::Machine m;
        for (int64_t k = 0; k < n; ++k) {
            uint64_t val = static_cast<uint64_t>(k * k + 1);
            ref.writeU64(kArr + 8 * static_cast<uint64_t>(k), val);
            m.mem().writeU64(kArr + 8 * static_cast<uint64_t>(k), val);
        }
        std::vector<int64_t> args{int64_t(kArr), n, int64_t(kOut)};
        InterpResult want = interpret(makeSumKernel(), args, ref);
        int64_t got = runOnSim(c, args, m);
        EXPECT_EQ(got, want.value) << "n=" << n;
        EXPECT_EQ(m.mem().readU64(kOut), ref.readU64(kOut)) << "n=" << n;
    }
}

// --------------------------------------------------------------------
// Kernel-level checks: comp. spec and unrolled kernels.
// --------------------------------------------------------------------

TEST(CompSpec, ConvertsStrictlyMoreThanCompIsel)
{
    // The paper's "unsafe" Clustalw/Hmmer hammocks contain matching
    // same-address stores; the analysis-backed variant converts them.
    for (auto k : {kernels::KernelKind::ForwardPass,
                   kernels::KernelKind::P7Viterbi}) {
        Compiled isel = kernels::compileKernel(k, Variant::CompIsel);
        Compiled spec = kernels::compileKernel(k, Variant::CompSpec);
        EXPECT_GT(spec.ifc.converted, isel.ifc.converted)
            << kernels::kernelName(k);
        EXPECT_GE(spec.ifc.mergedStores, 1u) << kernels::kernelName(k);
        EXPECT_EQ(spec.ifc.rejectedUnsafe, 0u) << kernels::kernelName(k);
        // Fewer conditional branches survive to the binary.
        EXPECT_LT(spec.cg.branchesEmitted, isel.cg.branchesEmitted)
            << kernels::kernelName(k);
    }
}

TEST(KernelUnroll, UnrollsKernelLoopsAndMatchesReference)
{
    // The counted kernel loops match the unroller's shape;
    // KernelMachine::run() validates results against the native
    // reference internally (panics on mismatch).
    Compiled c = kernels::compileKernel(kernels::KernelKind::ForwardPass,
                                        Variant::Baseline, 2);
    EXPECT_GE(c.unroll.unrolled, 1u);

    bio::SequenceGenerator g(4242);
    bio::Sequence a = g.random(24, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.2, 0.05, 0.05},
                               "b");
    const bio::SubstitutionMatrix &mat =
        bio::SubstitutionMatrix::blosum62();
    kernels::AlignProblem p{&a, &b, &mat, bio::GapPenalty{10, 1}};

    kernels::KernelMachine rolled(kernels::KernelKind::ForwardPass,
                                  Variant::Baseline,
                                  sim::MachineConfig());
    kernels::KernelMachine unrolled(kernels::KernelKind::ForwardPass,
                                    Variant::Baseline,
                                    sim::MachineConfig(), 2);
    rolled.setFunctionalOnly(true);
    unrolled.setFunctionalOnly(true);
    EXPECT_EQ(rolled.run(p), unrolled.run(p));
}

} // namespace
} // namespace bp5::mpc
