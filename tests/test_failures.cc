/**
 * @file
 * Failure-injection tests: the library must fail loudly (panic/fatal)
 * on broken inputs rather than produce wrong results — invalid
 * encodings, malformed sequences, inconsistent experiment setups.
 */

#include <gtest/gtest.h>

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

TEST(Failures, SankoffRejectsRaggedSequences)
{
    bio::GuideTree t;
    bio::GuideTree::Node l0, l1, j;
    l0.leaf = 0;
    l1.leaf = 1;
    j.left = 0;
    j.right = 1;
    t.nodes = {l0, l1, j};
    t.root = 2;
    std::vector<bio::Sequence> seqs = {
        bio::Sequence("a", bio::Alphabet::Dna, "ACGT"),
        bio::Sequence("b", bio::Alphabet::Dna, "ACG"),
    };
    EXPECT_DEATH(bio::sankoffScore(t, seqs,
                                   bio::ParsimonyCost::unit(
                                       bio::Alphabet::Dna)),
                 "equal-length");
}

TEST(Failures, KernelMachineRejectsWrongProblemKind)
{
    kernels::KernelMachine km(kernels::KernelKind::P7Viterbi,
                              mpc::Variant::Baseline,
                              sim::MachineConfig());
    bio::Sequence a("a", bio::Alphabet::Protein, "ARND");
    kernels::AlignProblem p{&a, &a,
                            &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    EXPECT_DEATH(km.run(p), "align problem on non-align kernel");
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
