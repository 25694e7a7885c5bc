/**
 * @file
 * Unit tests for the mpc IR interpreter (the differential-fuzzing
 * oracle): op semantics, control flow, memory access, step limits.
 */

#include <gtest/gtest.h>

#include "ir_interp.h"

namespace bp5::mpc {
namespace {

int64_t
run(const Function &fn, std::vector<int64_t> args = {})
{
    sim::Memory mem;
    InterpResult r = interpret(fn, args, mem, 1'000'000);
    EXPECT_TRUE(r.finished);
    return r.value;
}

TEST(Interp, ArithmeticAndImmediates)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(2);
    b.setBlock(b.newBlock("entry"));
    VReg s = b.add(0, 1);
    VReg t = b.muli(s, 3);
    VReg u = b.addi(t, -5);
    b.ret(u);
    EXPECT_EQ(run(fn, {4, 6}), (4 + 6) * 3 - 5);
    EXPECT_EQ(run(fn, {-10, 2}), (-10 + 2) * 3 - 5);
}

TEST(Interp, SelectAndMaxMin)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(2);
    b.setBlock(b.newBlock("entry"));
    VReg mx = b.max(0, 1);
    VReg mn = b.min(0, 1);
    VReg sel = b.select(Cond::EQ, mx, mn, 0, mx);
    b.ret(b.add(sel, mn));
    // a==b: sel = a; else sel = max.
    EXPECT_EQ(run(fn, {5, 5}), 10);
    EXPECT_EQ(run(fn, {3, 9}), 9 + 3);
}

TEST(Interp, BranchesAndLoop)
{
    // sum 1..n via a loop.
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(1);
    int entry = b.newBlock("entry");
    int body = b.newBlock("body");
    int done = b.newBlock("done");
    b.setBlock(entry);
    VReg i = b.iconst(1);
    VReg acc = b.iconst(0);
    b.jump(body);
    b.setBlock(body);
    b.copyTo(acc, b.add(acc, i));
    b.copyTo(i, b.addi(i, 1));
    b.br(Cond::LE, i, 0, body, done);
    b.setBlock(done);
    b.ret(acc);
    EXPECT_EQ(run(fn, {10}), 55);
    EXPECT_EQ(run(fn, {1}), 1);
}

TEST(Interp, MemoryRoundTrip)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(1); // base pointer
    b.setBlock(b.newBlock("entry"));
    VReg v = b.iconst(-123456);
    b.store(v, 0, 16);
    VReg back = b.load(0, 16);
    b.ret(back);
    EXPECT_EQ(run(fn, {0x9000}), -123456);
}

TEST(Interp, SignExtensionOnNarrowLoads)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(1);
    b.setBlock(b.newBlock("entry"));
    VReg v = b.iconst(0xFF);
    b.store(v, 0, 0, 1);
    VReg sgn = b.load(0, 0, 1, true);
    VReg uns = b.load(0, 0, 1, false);
    b.ret(b.add(b.muli(sgn, 1000), uns));
    EXPECT_EQ(run(fn, {0x9000}), -1000 + 255);
}

TEST(Interp, DivDefinedSemantics)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(2);
    b.setBlock(b.newBlock("entry"));
    b.ret(b.div(0, 1));
    EXPECT_EQ(run(fn, {100, 7}), 14);
    EXPECT_EQ(run(fn, {100, 0}), 0);
    EXPECT_EQ(run(fn, {INT64_MIN, -1}), 0);
}

TEST(Interp, StepLimitDetectsInfiniteLoops)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(0);
    int entry = b.newBlock("entry");
    b.setBlock(entry);
    b.jump(entry);
    sim::Memory mem;
    InterpResult r = interpret(fn, {}, mem, 1000);
    EXPECT_FALSE(r.finished);
    EXPECT_EQ(r.steps, 1000u);
}

TEST(Interp, BareRetReturnsZero)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(0);
    b.setBlock(b.newBlock("entry"));
    b.ret();
    EXPECT_EQ(run(fn), 0);
}

TEST(Interp, ShiftImmediates)
{
    Function fn;
    IrBuilder b(fn);
    b.declareArgs(1);
    b.setBlock(b.newBlock("entry"));
    VReg l = b.shli(0, 4);
    VReg r = b.srai(l, 2);
    b.ret(r);
    EXPECT_EQ(run(fn, {3}), (3 << 4) >> 2);
    EXPECT_EQ(run(fn, {-3}), (int64_t(-3) << 4) >> 2);
}

} // namespace
} // namespace bp5::mpc
