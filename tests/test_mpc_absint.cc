/**
 * @file
 * IR-level analysis tests: must-accessed-address proofs for
 * speculative loads, and store-merging if-conversion checked
 * bit-identical to the branchy original (registers AND memory).
 */

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "mpc/compiler.h"
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
// Kernel-level checks: comp. spec.
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

} // namespace
} // namespace bp5::mpc
