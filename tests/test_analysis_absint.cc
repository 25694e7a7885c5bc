/**
 * @file
 * Binary-level abstract-interpretation tests: the interval domain
 * (analysis/interval.h), provenance/interval tracking over the
 * reconstructed CFG, memory-access classification and the proof-backed
 * lint rules it powers, natural-loop detection with trip-count
 * recovery for both counted idioms, and CFG-reconstruction edge cases
 * (branch-to-self, conditional fallthrough at the image end,
 * overlapping hammocks, data words interleaved with code).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "analysis/loops.h"
#include "kernels/kernels.h"

namespace bp5::analysis {
namespace {

Cfg
cfgOf(const std::string &asm_text, uint64_t base = 0x10000)
{
    return buildCfg(CodeImage::fromProgram(masm::assemble(asm_text, base)));
}

const char *kExit = "        li r0, 0\n"
                    "        li r3, 0\n"
                    "        sc\n";

// --------------------------------------------------------------------
// Interval domain.
// --------------------------------------------------------------------

TEST(Interval, Basics)
{
    Interval p = Interval::point(5);
    EXPECT_TRUE(p.isPoint());
    EXPECT_TRUE(p.contains(5));
    EXPECT_FALSE(p.contains(6));
    EXPECT_TRUE(Interval::bottom().isBottom());
    EXPECT_TRUE(Interval::top().isTop());

    Interval r = Interval::range(-3, 7);
    EXPECT_EQ(r.join(p), Interval::range(-3, 7));
    EXPECT_EQ(r.join(Interval::point(100)), Interval::range(-3, 100));
    EXPECT_EQ(r.meet(Interval::range(0, 100)), Interval::range(0, 7));
    EXPECT_TRUE(r.meet(Interval::range(8, 9)).isBottom());
}

TEST(Interval, ArithmeticSaturates)
{
    Interval a = Interval::range(2, 4);
    Interval b = Interval::range(-1, 3);
    EXPECT_EQ(a.add(b), Interval::range(1, 7));
    EXPECT_EQ(a.sub(b), Interval::range(-1, 5));
    EXPECT_EQ(a.mul(b), Interval::range(-4, 12));
    EXPECT_EQ(a.neg(), Interval::range(-4, -2));

    Interval big = Interval::point(INT64_MAX - 1);
    EXPECT_EQ(big.addConst(10).hi, Interval::kPosInf);
    EXPECT_EQ(big.mul(Interval::point(2)).hi, Interval::kPosInf);
}

TEST(Interval, WideningJumpsMovedBounds)
{
    Interval prev = Interval::range(0, 10);
    EXPECT_EQ(Interval::range(0, 11).widenedFrom(prev),
              Interval::range(0, Interval::kPosInf));
    EXPECT_EQ(Interval::range(-1, 10).widenedFrom(prev),
              Interval::range(Interval::kNegInf, 10));
    EXPECT_EQ(Interval::range(0, 10).widenedFrom(prev), prev);
}

// --------------------------------------------------------------------
// Provenance and interval tracking.
// --------------------------------------------------------------------

TEST(BinAbsint, EntryStateFollowsAbi)
{
    Cfg cfg = cfgOf(std::string("start:\n") + kExit);
    ValueAnalysis va = analyzeValues(cfg, abiEntryDefined());
    const auto &entry = va.in[static_cast<size_t>(cfg.entryBlock)];
    EXPECT_EQ(entry[3].prov, Prov::Ptr);  // argument register
    EXPECT_EQ(entry[1].prov, Prov::Ptr);  // stack pointer
    EXPECT_EQ(entry[0].prov, Prov::Num);  // r0: scratch, never a pointer
    EXPECT_EQ(entry[20].prov, Prov::Bottom); // no path defines it
}

TEST(BinAbsint, ConstantsPropagateExactly)
{
    Cfg cfg = cfgOf(std::string(R"(
start:
        li r5, 40
        addi r5, r5, 2
        b next
next:
)") + kExit);
    ASSERT_EQ(cfg.blocks.size(), 2u);
    ValueAnalysis va = analyzeValues(cfg, abiEntryDefined());
    EXPECT_EQ(va.in[1][5], AbsVal::constant(42));
}

TEST(BinAbsint, LoadsProduceNumOrPtrByWidth)
{
    Cfg cfg = cfgOf(std::string(R"(
start:
        lwz r5, 0(r3)
        ld r6, 8(r3)
        b next
next:
)") + kExit);
    ASSERT_EQ(cfg.blocks.size(), 2u);
    ValueAnalysis va = analyzeValues(cfg, abiEntryDefined());
    // A 4-byte zero-extending load is numeric data with a width range;
    // only a full 8-byte load may carry a pointer.
    EXPECT_EQ(va.in[1][5].prov, Prov::Num);
    EXPECT_EQ(va.in[1][5].range.lo, 0);
    EXPECT_EQ(va.in[1][5].range.hi, 4294967295LL);
    EXPECT_EQ(va.in[1][6].prov, Prov::Ptr);

    // Both accesses ride a trusted ABI pointer: RegionRel, no errors.
    ASSERT_EQ(va.accesses.size(), 2u);
    EXPECT_EQ(va.accesses[0].cls, MemClass::RegionRel);
    EXPECT_EQ(va.accesses[1].cls, MemClass::RegionRel);
    EXPECT_FALSE(va.accesses[0].isStore);
}

TEST(BinAbsint, DeclaredRegionMakesConstantAccessInBounds)
{
    std::string prog = std::string(R"(
start:
        li r5, 0x4010
        lwz r4, 0(r5)
)") + kExit;
    Cfg cfg = cfgOf(prog);
    // Without a region the constant address is merely unproven...
    ValueAnalysis bare = analyzeValues(cfg, abiEntryDefined());
    ASSERT_EQ(bare.accesses.size(), 1u);
    EXPECT_EQ(bare.accesses[0].cls, MemClass::Unknown);
    // ...with one it is proven in-bounds.
    std::vector<MemRegion> regions{{0x4000, 0x1000, "heap"}};
    ValueAnalysis va = analyzeValues(cfg, abiEntryDefined(), regions);
    ASSERT_EQ(va.accesses.size(), 1u);
    EXPECT_EQ(va.accesses[0].cls, MemClass::InBounds);
}

// --------------------------------------------------------------------
// Lint rules backed by the analysis.
// --------------------------------------------------------------------

TEST(BinAbsint, NullPageLoadIsDefiniteError)
{
    LintReport r = lintProgram(masm::assemble(
        std::string("start:\n        li r5, 16\n        lwz r4, 0(r5)\n") +
            kExit,
        0x10000));
    ASSERT_EQ(r.diags.size(), 1u) << r.toText("oob");
    EXPECT_EQ(r.diags[0].code, LintCode::OutOfBoundsAccess);
    EXPECT_EQ(r.diags[0].severity, Severity::Error);
    EXPECT_NE(r.diags[0].message.find("null page"), std::string::npos);
}

TEST(BinAbsint, NullPageStoreNamesTheStore)
{
    LintReport r = lintProgram(masm::assemble(
        std::string("start:\n        li r5, 8\n        stw r6, 0(r5)\n") +
            kExit,
        0x10000));
    ASSERT_EQ(r.errors(), 1u) << r.toText("oob-store");
    EXPECT_EQ(r.diags[0].code, LintCode::OutOfBoundsAccess);
    EXPECT_NE(r.diags[0].message.find("store"), std::string::npos);
}

TEST(BinAbsint, MisalignedConstantAddressIsError)
{
    std::string prog =
        std::string("start:\n        li r5, 0x2002\n"
                    "        lwz r4, 0(r5)\n") +
        kExit;
    LintReport r = lintProgram(masm::assemble(prog, 0x10000));
    ASSERT_EQ(r.diags.size(), 1u) << r.toText("misaligned");
    EXPECT_EQ(r.diags[0].code, LintCode::MisalignedAccess);
    EXPECT_EQ(r.diags[0].severity, Severity::Error);

    // Pedantic mode must not pile an unproven-access warning on top of
    // the alignment error for the same access.
    LintOptions lo;
    lo.pedantic = true;
    LintReport rp = lintProgram(masm::assemble(prog, 0x10000), lo);
    for (const Diagnostic &d : rp.diags)
        EXPECT_NE(d.code, LintCode::UnprovenAccess)
            << rp.toText("misaligned-pedantic");
}

TEST(BinAbsint, ComputedAddressWarnsOnlyUnderPedantic)
{
    // The store base comes out of memory as 4-byte data: nothing
    // vouches for it being a mapped address.
    std::string prog = std::string(R"(
start:
        lwz r5, 0(r3)
        stw r6, 0(r5)
)") + kExit;
    masm::Program p = masm::assemble(prog, 0x10000);

    LintReport quiet = lintProgram(p);
    EXPECT_TRUE(quiet.clean()) << quiet.toText("unproven");

    LintOptions lo;
    lo.pedantic = true;
    LintReport r = lintProgram(p, lo);
    ASSERT_EQ(r.diags.size(), 1u) << r.toText("unproven-pedantic");
    EXPECT_EQ(r.diags[0].code, LintCode::UnprovenAccess);
    EXPECT_EQ(r.diags[0].severity, Severity::Warning);
    EXPECT_NE(r.diags[0].message.find("store"), std::string::npos);
}

TEST(BinAbsint, RegionOptionSilencesUnprovenAccess)
{
    std::string prog = std::string(R"(
start:
        li r5, 0x4100
        stw r6, 4(r5)
)") + kExit;
    masm::Program p = masm::assemble(prog, 0x10000);
    LintOptions lo;
    lo.pedantic = true;
    EXPECT_EQ(lintProgram(p, lo).warnings(), 1u);
    lo.regions.push_back({0x4000, 0x1000, "heap"});
    EXPECT_TRUE(lintProgram(p, lo).clean());
}

TEST(BinAbsint, NewLintCodesHaveStableNames)
{
    EXPECT_STREQ(lintCodeName(LintCode::OutOfBoundsAccess),
                 "out-of-bounds-access");
    EXPECT_STREQ(lintCodeName(LintCode::MisalignedAccess),
                 "misaligned-access");
    EXPECT_STREQ(lintCodeName(LintCode::UnprovenAccess),
                 "unproven-access");
    EXPECT_STREQ(lintCodeName(LintCode::InfiniteLoop), "infinite-loop");
}

TEST(BinAbsint, AllKernelVariantsPedanticCleanWithMemoryRules)
{
    LintOptions lo;
    lo.pedantic = true;
    for (unsigned k = 0; k < unsigned(kernels::KernelKind::NUM_KERNELS);
         ++k) {
        for (unsigned v = 0; v < unsigned(mpc::Variant::NUM_VARIANTS);
             ++v) {
            mpc::Compiled c = kernels::compileKernel(
                kernels::KernelKind(k), mpc::Variant(v));
            LintReport r =
                lintProgram(c.program(kernels::kCodeBase), lo);
            EXPECT_TRUE(r.clean())
                << kernels::kernelName(kernels::KernelKind(k)) << "/"
                << mpc::variantName(mpc::Variant(v)) << "\n"
                << r.toText("kernel");
        }
    }
}

// --------------------------------------------------------------------
// Binary natural loops and trip counts.
// --------------------------------------------------------------------

TEST(BinLoops, CtrCountdownLoopHasExactTripCount)
{
    Cfg cfg = cfgOf(std::string(R"(
start:
        li r14, 5
        mtctr r14
loop:
        addi r14, r14, -1
        bdnz loop
)") + kExit);
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    const BinLoop &l = forest.loops[0];
    EXPECT_TRUE(l.counted);
    EXPECT_TRUE(l.viaCtr);
    EXPECT_EQ(l.tripCount, 5);
    EXPECT_FALSE(l.infinite());
    EXPECT_EQ(l.blocks.size(), 1u);
    EXPECT_NE(forest.dump(cfg).find("trips"), std::string::npos);
}

TEST(BinLoops, GprIvLoopRecoversIvStepBoundTrips)
{
    Cfg cfg = cfgOf(std::string(R"(
start:
        li r14, 0
loop:
        addi r14, r14, 1
        cmpdi cr0, r14, 10
        blt cr0, loop
)") + kExit);
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    const BinLoop &l = forest.loops[0];
    EXPECT_TRUE(l.counted);
    EXPECT_FALSE(l.viaCtr);
    EXPECT_EQ(l.ivReg, 14u);
    EXPECT_EQ(l.step, 1);
    EXPECT_EQ(l.init, 0);
    EXPECT_EQ(l.bound, 10);
    EXPECT_EQ(l.tripCount, 10);
}

TEST(BinLoops, CtrLoopWithBreakHasNoTripCount)
{
    // A bdnz loop whose header may leave early: CTR bounds the trips
    // from above only, so the count is not exact.
    Cfg cfg = cfgOf(std::string(R"(
start:
        li r14, 5
        mtctr r14
loop:
        cmpdi cr0, r5, 0
        beq cr0, out
        addi r5, r5, -1
        bdnz loop
out:
)") + kExit);
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    const BinLoop &l = forest.loops[0];
    EXPECT_TRUE(l.counted);
    EXPECT_TRUE(l.viaCtr);
    EXPECT_EQ(l.exits.size(), 2u);
    EXPECT_EQ(l.tripCount, -1);
    EXPECT_EQ(forest.dump(cfg).find("trips"), std::string::npos);
}

TEST(BinLoops, GprLoopThatMayEscapeHasNoTripCount)
{
    // The body's `sc` has an unknown selector and may exit, so the
    // latch is not the only way out even with one exit edge.
    Cfg cfg = cfgOf(std::string(R"(
start:
        li r14, 0
loop:
        mr r0, r5
        sc
        addi r14, r14, 1
        cmpdi cr0, r14, 10
        blt cr0, loop
)") + kExit);
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    const BinLoop &l = forest.loops[0];
    EXPECT_TRUE(l.mayEscape);
    EXPECT_EQ(l.exits.size(), 1u);
    EXPECT_TRUE(l.counted);
    EXPECT_EQ(l.ivReg, 14u);
    EXPECT_EQ(l.tripCount, -1);
    EXPECT_EQ(forest.dump(cfg).find("trips"), std::string::npos);
}

TEST(BinLoops, UnknownInitLeavesTripCountUnknown)
{
    // The IV enters the loop in an ABI argument register: the shape is
    // counted but the trip count is not a compile-time constant.
    Cfg cfg = cfgOf(std::string(R"(
start:
loop:
        addi r5, r5, 1
        cmpdi cr0, r5, 10
        blt cr0, loop
)") + kExit);
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    EXPECT_TRUE(forest.loops[0].counted);
    EXPECT_EQ(forest.loops[0].tripCount, -1);
}

TEST(BinLoops, InfiniteLoopDetectedAndWarnedPedantically)
{
    masm::Program p = masm::assemble("spin:\n        b spin\n", 0x10000);
    Cfg cfg = buildCfg(CodeImage::fromProgram(p));
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    EXPECT_TRUE(forest.loops[0].infinite());

    EXPECT_TRUE(lintProgram(p).clean()); // deliberate spin loops exist
    LintOptions lo;
    lo.pedantic = true;
    LintReport r = lintProgram(p, lo);
    ASSERT_EQ(r.diags.size(), 1u) << r.toText("spin");
    EXPECT_EQ(r.diags[0].code, LintCode::InfiniteLoop);
    EXPECT_EQ(r.diags[0].severity, Severity::Warning);
    EXPECT_EQ(r.diags[0].pc, 0x10000u);
}

TEST(BinLoops, LoopThatMayExitIsNotInfinite)
{
    LintOptions lo;
    lo.pedantic = true;

    // A poll loop with no exit edge: its `sc` selector comes from
    // memory, so the syscall may halt the program.
    masm::Program poll = masm::assemble(R"(
        li r3, 0
loop:
        ld r0, 0(r1)
        sc
        addi r3, r3, 1
        b loop
)",
                                        0x10000);
    Cfg cfg = buildCfg(CodeImage::fromProgram(poll));
    BinLoopForest forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    EXPECT_TRUE(forest.loops[0].exits.empty());
    EXPECT_FALSE(forest.loops[0].infinite());
    LintReport r = lintProgram(poll, lo);
    EXPECT_TRUE(r.clean()) << r.toText("poll");

    // The selector is proven to be a non-exit syscall: still infinite.
    masm::Program spin = masm::assemble(R"(
spin:
        li r0, 1
        li r3, 65
        sc
        b spin
)",
                                        0x10000);
    cfg = buildCfg(CodeImage::fromProgram(spin));
    forest = findCfgLoops(cfg);
    ASSERT_EQ(forest.loops.size(), 1u);
    EXPECT_TRUE(forest.loops[0].infinite());
    r = lintProgram(spin, lo);
    ASSERT_EQ(r.diags.size(), 1u) << r.toText("spin");
    EXPECT_EQ(r.diags[0].code, LintCode::InfiniteLoop);
}

TEST(BinLoops, CompiledKernelsHaveLoopsAndNoneAreInfinite)
{
    // The DP kernels are loop nests bounded by runtime sequence
    // lengths (register compares), so the binary analyzer must find
    // their loops but cannot — and must not pretend to — recover
    // constant trip counts; none may be statically infinite.
    for (unsigned k = 0; k < unsigned(kernels::KernelKind::NUM_KERNELS);
         ++k) {
        mpc::Compiled c = kernels::compileKernel(
            kernels::KernelKind(k), mpc::Variant::Baseline);
        Cfg cfg = buildCfg(CodeImage::fromProgram(
            c.program(kernels::kCodeBase)));
        BinLoopForest forest = findCfgLoops(cfg);
        EXPECT_FALSE(forest.loops.empty())
            << kernels::kernelName(kernels::KernelKind(k));
        for (const BinLoop &l : forest.loops)
            EXPECT_FALSE(l.infinite())
                << kernels::kernelName(kernels::KernelKind(k));
    }
}

// --------------------------------------------------------------------
// CFG reconstruction edge cases.
// --------------------------------------------------------------------

TEST(CfgEdge, BranchToSelfIsASingleBlockSelfLoop)
{
    Cfg cfg = cfgOf("spin:\n        b spin\n");
    ASSERT_EQ(cfg.blocks.size(), 1u);
    EXPECT_EQ(cfg.blocks[0].succs, std::vector<int>{0});
    EXPECT_EQ(cfg.blocks[0].preds, std::vector<int>{0});
    EXPECT_TRUE(cfg.issues.empty());
}

TEST(CfgEdge, ConditionalFallthroughAtImageEndIsReported)
{
    // The not-taken path of the final bc runs off the image: the CFG
    // must surface it and lint must turn it into an error.
    masm::Program p = masm::assemble("start:\n"
                                     "        cmpdi cr0, r3, 0\n"
                                     "        beq cr0, start\n",
                                     0x10000);
    Cfg cfg = buildCfg(CodeImage::fromProgram(p));
    EXPECT_FALSE(cfg.issues.empty());
    LintReport r = lintProgram(p);
    EXPECT_GE(r.errors(), 1u);
    bool fallOff = false;
    for (const Diagnostic &d : r.diags)
        fallOff |= d.code == LintCode::FallOffEnd;
    EXPECT_TRUE(fallOff) << r.toText("fall-off");
}

TEST(CfgEdge, OverlappingHammocksSplitConsistently)
{
    // Two conditionals whose join points interleave; every target must
    // start a block and pred/succ lists must agree.
    Cfg cfg = cfgOf(std::string(R"(
start:
        cmpdi cr0, r3, 0
        blt cr0, mid
        cmpdi cr1, r4, 0
        blt cr1, end
mid:
        addi r5, r5, 1
end:
)") + kExit);
    ASSERT_TRUE(cfg.issues.empty());
    ASSERT_EQ(cfg.blocks.size(), 4u);
    const BasicBlock *mid = cfg.blockAt(0x10000 + 4 * 4);
    const BasicBlock *end = cfg.blockAt(0x10000 + 5 * 4);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(end, nullptr);
    // mid is reachable from both the first branch (taken) and the
    // second branch (fallthrough); end from the second branch (taken)
    // and from mid.
    EXPECT_EQ(mid->preds.size(), 2u);
    EXPECT_EQ(end->preds.size(), 2u);
    // Edge symmetry: every succ lists us as a pred.
    for (const BasicBlock &b : cfg.blocks) {
        for (int s : b.succs) {
            const auto &preds =
                cfg.blocks[static_cast<size_t>(s)].preds;
            EXPECT_NE(std::find(preds.begin(), preds.end(), b.id),
                      preds.end())
                << "block " << b.id << " -> " << s;
        }
    }
}

TEST(CfgEdge, DataWordsInterleavedWithCodeStayOutOfTheCfg)
{
    // A jumped-over data word must neither decode as reachable code
    // nor produce errors.
    Cfg cfg = cfgOf(std::string(R"(
start:
        b after
stuff:
        .dword 0
after:
)") + kExit);
    ASSERT_EQ(cfg.blocks.size(), 2u);
    EXPECT_EQ(cfg.blocks[0].succs, std::vector<int>{1});
    // The data word's addresses are not reachable program points.
    for (const BasicBlock &b : cfg.blocks)
        for (const CfgInst &ci : b.insts)
            EXPECT_NE(ci.pc, 0x10004u);
    EXPECT_EQ(cfg.blockAt(0x10004), nullptr);
    LintReport r = lint(cfg);
    EXPECT_EQ(r.errors(), 0u) << r.toText("data-words");
}

} // namespace
} // namespace bp5::analysis
