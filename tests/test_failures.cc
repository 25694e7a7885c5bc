/**
 * @file
 * Failure-injection tests: the library must fail loudly (panic/fatal)
 * on broken inputs rather than produce wrong results — invalid
 * encodings, malformed sequences, inconsistent experiment setups.
 */

#include <gtest/gtest.h>

#include <utility>

#include "bio/parsimony.h"
#include "bio/sequence.h"
#include "isa/encode.h"
#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "mpc/compiler.h"
#include "sim/machine.h"

namespace bp5 {
namespace {

using DeathTest = ::testing::Test;

TEST(Failures, ExecutorPanicsOnInvalidInstruction)
{
    sim::Machine m;
    // 0x00000000 decodes to nothing.
    m.state().pc = 0x1000;
    EXPECT_DEATH(m.runFunctional(1), "invalid instruction");
}

/// A branch into the partial word that a .byte tail leaves at the end
/// of the image decodes that word (and panics on it) instead of
/// indexing one micro-op slot past the image.
TEST(Failures, ExecutorPanicsOnBranchIntoPartialTrailingWord)
{
    masm::Program prog = masm::assemble(R"(
        b       tail
tail:
        .byte   0x2a
)");
    ASSERT_EQ(prog.image.size(), 5u);
    sim::Machine m;
    m.loadProgram(prog);
    m.state().pc = prog.base;
    EXPECT_DEATH(m.runFunctional(2), "invalid instruction 0x0000002a");
}

TEST(Failures, MachineRejectsUnitCountsBeyondItsInlineTables)
{
    sim::MachineConfig wide = sim::MachineConfig::power5WithFxu(
        sim::Machine::kMaxUnitsPerClass + 1);
    EXPECT_DEATH(sim::Machine m(wide), "execution units per class");
    sim::MachineConfig none;
    none.numBRU = 0;
    EXPECT_DEATH(sim::Machine m(none), "execution units per class");
}

TEST(Failures, EncoderRejectsOutOfRangeImmediate)
{
    isa::Inst i = isa::mkD(isa::Op::ADDI, 3, 0, 40000);
    EXPECT_DEATH(isa::encode(i), "out of .*range");
}

TEST(Failures, EncoderRejectsUnalignedBranch)
{
    isa::Inst b = isa::mkB(6);
    EXPECT_DEATH(isa::encode(b), "unaligned");
}

TEST(Failures, SequenceRejectsBadResidue)
{
    EXPECT_DEATH(bio::Sequence("x", bio::Alphabet::Dna, "ACGU"),
                 "invalid residue");
}

/**
 * Every kernel refuses every Invocation alternative but its own, before
 * following any of the problem's pointers.
 */
TEST(Failures, KernelMachineRejectsWrongProblemKind)
{
    const std::pair<kernels::Invocation, const char *> problems[] = {
        {kernels::AlignProblem{}, "align problem on non-align kernel"},
        {kernels::ViterbiProblem{}, "viterbi problem on non-viterbi kernel"},
        {kernels::ExtendProblem{}, "extend problem on non-extend kernel"},
        {kernels::SankoffProblem{}, "sankoff problem on non-sankoff kernel"},
    };
    // Each kernel with the index of the one alternative it runs.
    const std::pair<kernels::KernelKind, size_t> kernelsAndOwn[] = {
        {kernels::KernelKind::ForwardPass, 0},
        {kernels::KernelKind::Dropgsw, 0},
        {kernels::KernelKind::P7Viterbi, 1},
        {kernels::KernelKind::SemiGAlign, 2},
        {kernels::KernelKind::Sankoff, 3},
    };
    int rejected = 0;
    for (const auto &[kind, own] : kernelsAndOwn) {
        kernels::KernelMachine km(kind, mpc::Variant::Baseline,
                                  sim::MachineConfig());
        for (const auto &[inv, message] : problems) {
            if (inv.index() == own)
                continue;
            EXPECT_DEATH(km.run(inv), message) << kernels::kernelName(kind);
            ++rejected;
        }
    }
    EXPECT_EQ(rejected, 15);
}

TEST(Failures, IrVerifyCatchesUnterminatedBlock)
{
    mpc::Function fn;
    fn.name = "broken";
    mpc::IrBuilder b(fn);
    b.declareArgs(1);
    b.setBlock(b.newBlock("entry"));
    b.addi(0, 1); // no terminator
    EXPECT_DEATH(fn.verify(), "not terminated");
}

TEST(Failures, IrVerifyCatchesBadRegister)
{
    mpc::Function fn;
    fn.name = "broken";
    mpc::IrBuilder b(fn);
    b.declareArgs(1);
    b.setBlock(b.newBlock("entry"));
    mpc::IrInst i;
    i.op = mpc::IrOp::Add;
    i.dst = 0;
    i.a = 0;
    i.b = 99; // never allocated
    fn.blocks[0].insts.push_back(i);
    mpc::IrInst r;
    r.op = mpc::IrOp::Ret;
    r.a = 0;
    fn.blocks[0].insts.push_back(r);
    EXPECT_DEATH(fn.verify(), "bad .* register");
}

TEST(Failures, AssemblerThrowsNotDies)
{
    // Malformed assembly is a user error surfaced as an exception,
    // not a crash.
    EXPECT_THROW(masm::assemble("addi r1\n"), masm::AsmError);
    EXPECT_THROW(masm::assemble(".space -4\n"), masm::AsmError);
    EXPECT_THROW(masm::assemble(".align 3\n"), masm::AsmError);
}

} // namespace
} // namespace bp5
