#include "mpc/absint.h"

#include <algorithm>

#include "support/logging.h"

namespace bp5::mpc {

AddrFact
addrFactOf(const IrInst &i)
{
    BP5_ASSERT(i.op == IrOp::Load || i.op == IrOp::Store,
               "addrFactOf on non-memory instruction");
    AddrFact f;
    f.base = i.a;
    f.index = i.b;
    f.disp = i.imm;
    f.size = i.size;
    if (f.index != kNoReg && f.index < f.base)
        std::swap(f.base, f.index);
    return f;
}

namespace {

/** Remove facts naming @p r, then insert the widest form of @p gen. */
void
killReg(std::vector<AddrFact> &set, VReg r)
{
    set.erase(std::remove_if(set.begin(), set.end(),
                             [&](const AddrFact &f) {
                                 return f.base == r || f.index == r;
                             }),
              set.end());
}

void
genFact(std::vector<AddrFact> &set, const AddrFact &f)
{
    for (AddrFact &e : set) {
        if (e.sameAddress(f)) {
            e.size = std::max(e.size, f.size);
            return;
        }
    }
    set.insert(std::lower_bound(set.begin(), set.end(), f), f);
}

/** Transfer one instruction over a fact set. */
void
transferFacts(const IrInst &i, std::vector<AddrFact> &set)
{
    // The access itself proves its address dereferenceable — generate
    // before killing the destination (a load may overwrite its own
    // base register).
    if (i.op == IrOp::Load || i.op == IrOp::Store)
        genFact(set, addrFactOf(i));
    if (!i.isTerminator() && i.op != IrOp::Store && i.dst != kNoReg)
        killReg(set, i.dst);
}

std::vector<AddrFact>
intersectFacts(const std::vector<AddrFact> &a,
               const std::vector<AddrFact> &b)
{
    std::vector<AddrFact> out;
    for (const AddrFact &fa : a) {
        for (const AddrFact &fb : b) {
            if (fa.sameAddress(fb)) {
                AddrFact f = fa;
                f.size = std::min(fa.size, fb.size);
                out.push_back(f);
                break;
            }
        }
    }
    return out;
}

} // namespace

bool
MustAccess::covered(const std::vector<AddrFact> &set, const AddrFact &f,
                    unsigned size)
{
    for (const AddrFact &e : set) {
        if (e.base != f.base || e.index != f.index)
            continue;
        if (e.disp <= f.disp &&
            f.disp + static_cast<int64_t>(size) <=
                e.disp + static_cast<int64_t>(e.size))
            return true;
    }
    return false;
}

MustAccess
mustAccessedAddresses(const Function &fn)
{
    const size_t nb = fn.blocks.size();
    MustAccess ma;
    ma.in.assign(nb, {});
    std::vector<bool> visited(nb, false);
    visited[0] = true; // entry starts with no facts

    bool changed = true;
    while (changed) {
        changed = false;
        for (const Block &b : fn.blocks) {
            size_t id = static_cast<size_t>(b.id);
            if (!visited[id])
                continue;
            std::vector<AddrFact> st = ma.in[id];
            for (const IrInst &i : b.insts)
                transferFacts(i, st);
            for (int succ : fn.successors(b.id)) {
                size_t s = static_cast<size_t>(succ);
                std::vector<AddrFact> merged =
                    visited[s] ? intersectFacts(ma.in[s], st) : st;
                if (!visited[s] || merged != ma.in[s]) {
                    ma.in[s] = std::move(merged);
                    visited[s] = true;
                    changed = true;
                }
            }
        }
    }
    return ma;
}

ProveStats
proveSafeLoads(Function &fn)
{
    MustAccess ma = mustAccessedAddresses(fn);
    ProveStats stats;
    for (Block &b : fn.blocks) {
        std::vector<AddrFact> st = ma.in[static_cast<size_t>(b.id)];
        for (IrInst &i : b.insts) {
            if (i.op == IrOp::Load) {
                ++stats.candidates;
                if (i.safe) {
                    ++stats.alreadySafe;
                } else if (MustAccess::covered(st, addrFactOf(i),
                                               i.size)) {
                    i.safe = true;
                    ++stats.proved;
                }
            }
            transferFacts(i, st);
        }
    }
    return stats;
}

} // namespace bp5::mpc
