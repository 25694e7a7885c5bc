#include "mpc/loops.h"

#include <algorithm>
#include <utility>

namespace bp5::mpc {

namespace {

/** Floor division for step > 0 over wide intermediates. */
int64_t
floorDiv(__int128 num, int64_t den)
{
    __int128 q = num / den;
    if (num % den != 0 && num < 0)
        --q;
    if (q < INT64_MIN)
        return INT64_MIN;
    if (q > INT64_MAX)
        return INT64_MAX;
    return static_cast<int64_t>(q);
}

/** All non-terminator defs of @p r inside the loop body. */
std::vector<const IrInst *>
loopDefsOf(const Function &fn, const IrLoop &loop, VReg r)
{
    std::vector<const IrInst *> defs;
    for (int id : loop.blocks) {
        for (const IrInst &i : fn.block(id).insts) {
            if (!i.isTerminator() && i.op != IrOp::Store && i.dst == r)
                defs.push_back(&i);
        }
    }
    return defs;
}

/** The unique Const defining @p r anywhere in @p fn, or nullptr. */
const IrInst *
uniqueConstDef(const Function &fn, VReg r,
               const IrLoop *excludeLoop = nullptr)
{
    const IrInst *found = nullptr;
    for (const Block &b : fn.blocks) {
        if (excludeLoop && excludeLoop->contains(b.id))
            continue;
        for (const IrInst &i : b.insts) {
            if (i.isTerminator() || i.op == IrOp::Store || i.dst != r)
                continue;
            if (found)
                return nullptr; // multiply defined
            found = &i;
        }
    }
    return found && found->op == IrOp::Const ? found : nullptr;
}

/**
 * Recognize the rotated counted-loop shape and fill the IV fields:
 * single latch ending `br {lt,le} iv, limit, header, exit`, the only
 * in-loop defs of iv forming one `iv += step` chain in the latch, and
 * limit loop-invariant.
 */
void
analyzeCountedShape(const Function &fn, IrLoop &loop)
{
    if (loop.latches.size() != 1)
        return;
    int latchId = loop.latches[0];
    const Block &latch = fn.block(latchId);
    const IrInst &t = latch.terminator();
    if (t.op != IrOp::Br)
        return;
    Cond cond = t.cond;
    if (t.tblk == loop.header && !loop.contains(t.fblk)) {
        // continue on true
    } else if (t.fblk == loop.header && !loop.contains(t.tblk)) {
        cond = negate(cond);
    } else {
        return;
    }
    if (cond != Cond::LT && cond != Cond::LE)
        return;
    VReg iv = t.a;
    VReg limit = t.b;
    if (!loopDefsOf(fn, loop, limit).empty())
        return; // bound not loop-invariant

    // iv's only in-loop def must be `iv += step` — either a direct
    // AddI or the builder's copyTo(iv, addi(iv, step)) two-step.
    std::vector<const IrInst *> ivDefs = loopDefsOf(fn, loop, iv);
    if (ivDefs.size() != 1)
        return;
    const IrInst &d = *ivDefs[0];
    const IrInst *stepInst = &d;
    int64_t step = 0;
    if (d.op == IrOp::AddI && d.a == iv) {
        step = d.imm;
    } else if (d.op == IrOp::OrI && d.imm == 0) {
        std::vector<const IrInst *> tmpDefs = loopDefsOf(fn, loop, d.a);
        if (tmpDefs.size() != 1 || tmpDefs[0]->op != IrOp::AddI ||
            tmpDefs[0]->a != iv)
            return;
        stepInst = tmpDefs[0];
        step = stepInst->imm;
    } else {
        return;
    }
    if (step <= 0)
        return;
    // The whole increment chain must sit in the latch so it runs
    // exactly once per iteration, unconditionally before the branch.
    bool copyInLatch = false, stepInLatch = false;
    for (const IrInst &i : latch.insts) {
        copyInLatch = copyInLatch || &i == &d;
        stepInLatch = stepInLatch || &i == stepInst;
    }
    if (!copyInLatch || !stepInLatch)
        return;

    loop.hasCountedShape = true;
    loop.iv = iv;
    loop.step = step;
    loop.limit = limit;
    loop.cond = cond;

    // Trip count when both the bound and the entry value are unique
    // compile-time constants.
    const IrInst *limDef = uniqueConstDef(fn, limit);
    const IrInst *initDef = uniqueConstDef(fn, iv, &loop);
    if (!limDef || !initDef)
        return;
    __int128 k = limDef->imm;
    __int128 v0 = initDef->imm;
    // Body executes with entry values v0, v0+step, ...; after a body
    // run the latch continues while `iv cond limit` holds for the
    // post-increment value.
    __int128 num = cond == Cond::LE ? k - v0 : k - v0 - 1;
    int64_t extra = num < 0 ? 0 : floorDiv(num, step);
    loop.tripCount = extra == INT64_MAX ? -1 : extra + 1;
}

} // namespace

bool
IrLoopForest::nestedIn(const IrLoop &inner, const IrLoop &outer)
{
    if (inner.blocks.size() >= outer.blocks.size())
        return false;
    return std::includes(outer.blocks.begin(), outer.blocks.end(),
                         inner.blocks.begin(), inner.blocks.end());
}

IrLoopForest
findLoops(const Function &fn)
{
    support::Digraph succs(fn.blocks.size());
    for (const Block &b : fn.blocks)
        succs[static_cast<size_t>(b.id)] = fn.successors(b.id);
    IrLoopForest forest;
    for (support::NaturalLoop &nl : support::naturalLoops(succs, 0)) {
        IrLoop loop;
        static_cast<support::NaturalLoop &>(loop) = std::move(nl);
        analyzeCountedShape(fn, loop);
        forest.loops.push_back(std::move(loop));
    }
    return forest;
}

} // namespace bp5::mpc
