/**
 * @file
 * IR builders for the four dynamic-programming kernels.  See
 * kernels.h for the modelling of branchy vs hand-annotated builds.
 *
 * Loops are built in rotated (do-while) form, as optimizing compilers
 * emit them: one backward conditional branch per iteration, taken on
 * every iteration but the last.  All kernels require non-empty inputs
 * (lengths >= 1); the runtime asserts this.
 */

#include "kernels/kernels.h"

#include "support/logging.h"

namespace bp5::kernels {

using mpc::Cond;
using mpc::Function;
using mpc::IrBuilder;
using mpc::VReg;

namespace {

/** "Minus infinity" used by the Viterbi and x-drop kernels. */
constexpr int64_t kNeg = -100000000;

/**
 * Emit `acc = max(acc, val)`.
 * Hand-annotated: a single max at the site the human identified.
 * Branchy: the C idiom `if (acc < val) acc = val` as a hammock.
 */
void
runningMax(IrBuilder &b, bool predicated, VReg acc, VReg val,
           const std::string &tag)
{
    if (predicated) {
        b.maxInto(acc, val);
        return;
    }
    int then = b.newBlock(tag + "_then");
    int join = b.newBlock(tag + "_join");
    b.br(Cond::LT, acc, val, then, join);
    b.setBlock(then);
    b.copyTo(acc, val);
    b.jump(join);
    b.setBlock(join);
}

/** Emit `acc = min(acc, val)` (predicated or as a branch hammock). */
void
runningMin(IrBuilder &b, bool predicated, VReg acc, VReg val,
           const std::string &tag)
{
    if (predicated) {
        b.minInto(acc, val);
        return;
    }
    int then = b.newBlock(tag + "_then");
    int join = b.newBlock(tag + "_join");
    b.br(Cond::GT, acc, val, then, join);
    b.setBlock(then);
    b.copyTo(acc, val);
    b.jump(join);
    b.setBlock(join);
}

/**
 * Close a rotated loop: increment the induction register and branch
 * back to @p body while `iv <= limit`.
 * @return the block id after the loop (the new current block).
 */
int
loopEnd(IrBuilder &b, VReg iv, VReg limit, int body,
        const std::string &tag)
{
    b.copyTo(iv, b.addi(iv, 1));
    int exit = b.newBlock(tag + "_exit");
    b.br(Cond::LE, iv, limit, body, exit);
    b.setBlock(exit);
    return exit;
}

/** Shared shape knobs for the two pairwise-alignment kernels. */
struct AlignKernelShape
{
    bool local;
    bool ePred, fPred, vPred, bestPred;
    bool fInMemory;
};

/**
 * Pairwise alignment kernel.
 * Args: 0 aPtr, 1 aLen, 2 bPtr, 3 bLen, 4 matPtr (int32 KxK),
 *       5 vPtr, 6 fPtr (int64 rows of bLen+1), 7 gpPtr {0:wg, 8:ws}.
 */
Function
buildAlignKernel(const char *name, const AlignKernelShape &s)
{
    Function fn;
    fn.name = name;
    IrBuilder b(fn);
    b.declareArgs(8);
    const VReg aPtr = 0, aLen = 1, bPtr = 2, bLen = 3, matPtr = 4,
               vPtr = 5, fPtr = 6, gpPtr = 7;

    int entry = b.newBlock("entry");
    b.setBlock(entry);
    VReg wg = b.load(gpPtr, 0);
    VReg ws = b.load(gpPtr, 8);
    VReg zero = b.iconst(0);
    VReg negWg = b.sub(zero, wg);
    b.store(zero, vPtr, 0); // V[0] = 0
    VReg j = b.iconst(1);

    // Row initialization (bLen >= 1).
    int init_body = b.newBlock("init_body");
    b.jump(init_body);
    b.setBlock(init_body);
    VReg joff0 = b.shli(j, 3);
    if (s.local) {
        b.storex(zero, vPtr, joff0);
        b.storex(negWg, fPtr, joff0);
    } else {
        VReg t = b.mul(j, ws);
        VReg t2 = b.add(t, wg);
        VReg edge = b.sub(zero, t2);
        b.storex(edge, vPtr, joff0);
        b.storex(edge, fPtr, joff0);
    }
    loopEnd(b, j, bLen, init_body, "init");

    VReg i = b.iconst(1);
    VReg best = b.iconst(0); // used by the local kernel only
    int outer_body = b.newBlock("outer_body");
    b.jump(outer_body);

    b.setBlock(outer_body);
    VReg im1 = b.addi(i, -1);
    VReg ai = b.loadx(aPtr, im1, 1, false);
    VReg arow = b.muli(ai, 80); // K=20 int32 entries per row
    VReg arowp = b.add(matPtr, arow);
    VReg vdiag = b.load(vPtr, 0);
    VReg e = b.fn().newReg();
    if (s.local) {
        b.copyTo(e, negWg);
    } else {
        VReg t = b.mul(i, ws);
        VReg t2 = b.add(t, wg);
        VReg rowEdge = b.sub(zero, t2);
        b.store(rowEdge, vPtr, 0);
        b.copyTo(e, rowEdge);
    }
    // The current row's V(i, j-1) is carried in a register, and the
    // byte offset of column j is strength-reduced (gcc -O2 shapes).
    VReg vprev = b.fn().newReg();
    if (s.local)
        b.copyTo(vprev, zero);
    else
        b.copyTo(vprev, e); // e holds the row edge value here
    VReg jj = b.iconst(1);
    VReg joff = b.iconst(8);
    VReg bidx = b.iconst(0);
    int inner_body = b.newBlock("inner_body");
    b.jump(inner_body);

    b.setBlock(inner_body);
    VReg bj = b.loadx(bPtr, bidx, 1, false);
    VReg boff = b.shli(bj, 2);
    VReg wsum = b.add(arowp, boff);
    VReg w = b.load(wsum, 0, 4, true); // int32 matrix entry

    // E(i,j) = max(E(i,j-1), V(i,j-1) - Wg) - Ws
    VReg t1 = b.sub(vprev, wg);
    runningMax(b, s.ePred, e, t1, "e");
    b.subInto(e, ws);

    // F(i,j) = max(F(i-1,j), V(i-1,j) - Wg) - Ws
    VReg vj = b.loadx(vPtr, joff);
    VReg t2f = b.sub(vj, wg);
    VReg f = b.fn().newReg();
    if (s.fInMemory) {
        // Clustalw-style through-memory update: both sides store to
        // F[j], so if-conversion must reject this diamond.
        VReg fold = b.loadx(fPtr, joff);
        int fthen = b.newBlock("f_then");
        int felse = b.newBlock("f_else");
        int fjoin = b.newBlock("f_join");
        b.br(Cond::LT, fold, t2f, fthen, felse);
        b.setBlock(fthen);
        b.storex(b.sub(t2f, ws), fPtr, joff);
        b.jump(fjoin);
        b.setBlock(felse);
        b.storex(b.sub(fold, ws), fPtr, joff);
        b.jump(fjoin);
        b.setBlock(fjoin);
        b.copyTo(f, b.loadx(fPtr, joff));
    } else {
        VReg fold = b.loadx(fPtr, joff);
        VReg facc = b.fn().newReg();
        b.copyTo(facc, fold);
        runningMax(b, s.fPred, facc, t2f, "f");
        b.copyTo(f, b.sub(facc, ws));
        b.storex(f, fPtr, joff);
    }

    // G and the consecutive max statements the paper highlights.
    VReg g = b.add(vdiag, w);
    b.copyTo(vdiag, vj);
    VReg v = b.fn().newReg();
    b.copyTo(v, e);
    runningMax(b, s.vPred, v, f, "vf");
    runningMax(b, s.vPred, v, g, "vg");
    if (s.local)
        runningMax(b, s.vPred, v, zero, "v0");
    b.storex(v, vPtr, joff);
    b.copyTo(vprev, v);
    if (s.local)
        runningMax(b, s.bestPred, best, v, "best");
    b.addiInto(joff, 8);
    b.addiInto(bidx, 1);
    loopEnd(b, jj, bLen, inner_body, "inner");
    loopEnd(b, i, aLen, outer_body, "outer");

    if (s.local) {
        b.ret(best);
    } else {
        VReg off = b.shli(bLen, 3);
        VReg res = b.loadx(vPtr, off);
        b.ret(res);
    }
    return fn;
}

/**
 * P7Viterbi.
 * Args: 0 descPtr, 1 seqPtr, 2 seqLen, 3 wsPtr.
 * Descriptor (int64 fields):
 *   [0]=M [8]=msc [16]=tmm [24]=tmi [32]=tmd [40]=tim [48]=tii
 *   [56]=tdm [64]=tdd [72]=tbm [80]=tme [88]=isc [96]=K
 * Workspace: 6 rows of (M+1) int64: pm pi pd cm ci cd.
 */
Function
buildViterbiKernel(bool hand)
{
    Function fn;
    fn.name = hand ? "P7Viterbi_hand" : "P7Viterbi";
    IrBuilder b(fn);
    b.declareArgs(4);
    const VReg desc = 0, seqPtr = 1, seqLen = 2, wsPtr = 3;

    int entry = b.newBlock("entry");
    b.setBlock(entry);
    VReg M = b.load(desc, 0);
    VReg msc = b.load(desc, 8);
    VReg tmm = b.load(desc, 16);
    VReg tmi = b.load(desc, 24);
    VReg tmd = b.load(desc, 32);
    VReg tim = b.load(desc, 40);
    VReg tii = b.load(desc, 48);
    VReg tdm = b.load(desc, 56);
    VReg tdd = b.load(desc, 64);
    VReg tbm = b.load(desc, 72);
    VReg tme = b.load(desc, 80);
    VReg isc = b.load(desc, 88);
    VReg K = b.load(desc, 96);

    VReg m1 = b.addi(M, 1);
    VReg rowBytes = b.shli(m1, 3);
    VReg rpm = b.fn().newReg(), rpi = b.fn().newReg(),
         rpd = b.fn().newReg();
    VReg rcm = b.fn().newReg(), rci = b.fn().newReg(),
         rcd = b.fn().newReg();
    b.copyTo(rpm, wsPtr);
    b.copyTo(rpi, b.add(rpm, rowBytes));
    b.copyTo(rpd, b.add(rpi, rowBytes));
    b.copyTo(rcm, b.add(rpd, rowBytes));
    b.copyTo(rci, b.add(rcm, rowBytes));
    b.copyTo(rcd, b.add(rci, rowBytes));

    VReg neg = b.iconst(kNeg);
    VReg best = b.fn().newReg();
    b.copyTo(best, neg);

    // Initialize the previous rows to -inf (M >= 1 so trip >= 2).
    VReg k0 = b.iconst(0);
    int ib = b.newBlock("vinit_body");
    b.jump(ib);
    b.setBlock(ib);
    VReg k0off = b.shli(k0, 3);
    b.storex(neg, rpm, k0off);
    b.storex(neg, rpi, k0off);
    b.storex(neg, rpd, k0off);
    loopEnd(b, k0, M, ib, "vinit");

    VReg i = b.iconst(0);
    VReg lm1 = b.addi(seqLen, -1);
    int obody = b.newBlock("vouter_body");
    b.jump(obody);

    b.setBlock(obody);
    VReg x = b.loadx(seqPtr, i, 1, false);
    b.store(neg, rcm, 0);
    b.store(neg, rci, 0);
    b.store(neg, rcd, 0);
    VReg k = b.iconst(1);
    VReg koff = b.iconst(8);
    // Match-emission pointer walks row-major: msc + x*8 + k*(K*8).
    VReg kb = b.shli(K, 3);
    VReg maddr = b.add(b.add(msc, b.shli(x, 3)), kb);
    int kbody = b.newBlock("vk_body");
    b.jump(kbody);

    b.setBlock(kbody);
    VReg km1off = b.addi(koff, -8);

    // Match state: the P7Viterbi four-way max.
    VReg mm = b.add(b.loadx(rpm, km1off), b.loadx(tmm, km1off));
    VReg ti = b.add(b.loadx(rpi, km1off), b.loadx(tim, km1off));
    runningMax(b, hand, mm, ti, "vm_i");
    VReg td = b.add(b.loadx(rpd, km1off), b.loadx(tdm, km1off));
    runningMax(b, hand, mm, td, "vm_d");
    VReg tb = b.loadx(tbm, koff);
    runningMax(b, hand, mm, tb, "vm_b");
    VReg mev = b.load(maddr, 0);
    b.addInto(mm, mev);
    b.storex(mm, rcm, koff);

    // Insert state.  HMMER2 updates imx[i][k] through memory; the
    // branchy build keeps that store-in-hammock diamond (which gcc
    // cannot if-convert), the hand build uses a register max.
    VReg i1v = b.add(b.loadx(rpm, koff), b.loadx(tmi, koff));
    VReg i2v = b.add(b.loadx(rpi, koff), b.loadx(tii, koff));
    if (hand) {
        VReg iv = b.max(i1v, i2v);
        b.storex(b.add(iv, isc), rci, koff);
    } else {
        int ithen = b.newBlock("vi_then");
        int ielse = b.newBlock("vi_else");
        int ijoin = b.newBlock("vi_join");
        b.br(Cond::GT, i2v, i1v, ithen, ielse);
        b.setBlock(ithen);
        b.storex(b.add(i2v, isc), rci, koff);
        b.jump(ijoin);
        b.setBlock(ielse);
        b.storex(b.add(i1v, isc), rci, koff);
        b.jump(ijoin);
        b.setBlock(ijoin);
    }

    // Delete state (current-row dependence on k-1).
    VReg dv = b.add(b.loadx(rcm, km1off), b.loadx(tmd, km1off));
    VReg d2 = b.add(b.loadx(rcd, km1off), b.loadx(tdd, km1off));
    runningMax(b, hand, dv, d2, "vd");
    b.storex(dv, rcd, koff);

    // End state / running best.
    VReg ev = b.add(mm, b.loadx(tme, koff));
    runningMax(b, hand, best, ev, "vbest");
    b.addiInto(koff, 8);
    b.addInto(maddr, kb);
    loopEnd(b, k, M, kbody, "vk");

    // Swap row pointers.
    VReg t = b.fn().newReg();
    b.copyTo(t, rpm);
    b.copyTo(rpm, rcm);
    b.copyTo(rcm, t);
    VReg t2 = b.fn().newReg();
    b.copyTo(t2, rpi);
    b.copyTo(rpi, rci);
    b.copyTo(rci, t2);
    VReg t3 = b.fn().newReg();
    b.copyTo(t3, rpd);
    b.copyTo(rpd, rcd);
    b.copyTo(rcd, t3);
    loopEnd(b, i, lm1, obody, "vouter");

    b.ret(best);
    return fn;
}

/**
 * SemiGAlign: forward x-drop gapped extension with the live-window
 * pruning of NCBI BLAST's gapped aligner.
 * Args: 0 aPtr, 1 aLen, 2 bPtr, 3 bLen, 4 matPtr, 5 vPtr, 6 fPtr,
 *       7 gpPtr {0:wg, 8:ws, 16:xd}.
 *
 * Per row, only columns [jLo, min(jHi+1, bLen)] are computed; cells
 * below best - xd are killed, and the row's surviving span becomes the
 * next window.  The window bookkeeping is the irregular control flow
 * that limits predication gains on Blast (paper VI-A): its nested
 * branches are not hammocks, so neither the hand rewrite nor the
 * compiler can remove them.  The hand build predicates the alignment
 * maxes except the F-row update (buried in a macro in the original
 * source); the compiler converts that one and the x-drop clamps too.
 */
Function
buildSemiGKernel(bool hand)
{
    Function fn;
    fn.name = hand ? "SEMI_G_ALIGN_hand" : "SEMI_G_ALIGN";
    IrBuilder b(fn);
    b.declareArgs(8);
    const VReg aPtr = 0, aLen = 1, bPtr = 2, bLen = 3, matPtr = 4,
               vPtr = 5, fPtr = 6, gpPtr = 7;

    int entry = b.newBlock("entry");
    b.setBlock(entry);
    VReg wg = b.load(gpPtr, 0);
    VReg ws = b.load(gpPtr, 8);
    VReg xd = b.load(gpPtr, 16);
    VReg zero = b.iconst(0);
    VReg one = b.iconst(1);
    VReg minus1 = b.iconst(-1);
    VReg neg = b.iconst(kNeg);
    VReg best = b.fn().newReg();
    b.copyTo(best, zero);
    VReg negXd = b.sub(zero, xd);
    b.store(zero, vPtr, 0);

    // Init row 0: V[j] = -wg - j*ws clamped by the x-drop, F[j] = neg.
    // jHi tracks the last surviving column.
    VReg jHi = b.fn().newReg();
    b.copyTo(jHi, zero);
    VReg j = b.iconst(1);
    int ib = b.newBlock("ginit_body");
    b.jump(ib);
    b.setBlock(ib);
    VReg t = b.mul(j, ws);
    VReg edge = b.sub(b.sub(zero, wg), t);
    {
        int cthen = b.newBlock("gic_then");
        int celse = b.newBlock("gic_else");
        int cjoin = b.newBlock("gic_join");
        b.br(Cond::LT, edge, negXd, cthen, celse);
        b.setBlock(cthen);
        b.copyTo(edge, neg);
        b.jump(cjoin);
        b.setBlock(celse);
        b.copyTo(jHi, j); // still alive: extend the initial window
        b.jump(cjoin);
        b.setBlock(cjoin);
    }
    VReg joff0 = b.shli(j, 3);
    b.storex(edge, vPtr, joff0);
    b.storex(neg, fPtr, joff0);
    loopEnd(b, j, bLen, ib, "ginit");

    VReg jLo = b.fn().newReg();
    b.copyTo(jLo, one);
    VReg i = b.iconst(1);
    int ohead = b.newBlock("gouter_head");
    b.jump(ohead);

    b.setBlock(ohead);
    // rowTop = min(jHi + 1, bLen); window vanished => done.
    VReg rowTop = b.addi(jHi, 1);
    {
        int mthen = b.newBlock("gmin_then");
        int mjoin = b.newBlock("gmin_join");
        b.br(Cond::GT, rowTop, bLen, mthen, mjoin);
        b.setBlock(mthen);
        b.copyTo(rowTop, bLen);
        b.jump(mjoin);
        b.setBlock(mjoin);
    }
    int obody = b.newBlock("gouter_body");
    int done = b.newBlock("gdone");
    b.br(Cond::LE, jLo, rowTop, obody, done);

    b.setBlock(obody);
    VReg im1 = b.addi(i, -1);
    VReg ai = b.loadx(aPtr, im1, 1, false);
    VReg arowp = b.add(matPtr, b.muli(ai, 80));
    VReg e = b.fn().newReg();
    b.copyTo(e, neg);
    VReg newLo = b.fn().newReg();
    b.copyTo(newLo, minus1);
    VReg newHi = b.fn().newReg();
    b.copyTo(newHi, minus1);

    // vdiag = V[jLo - 1] (read before cell 0 is overwritten).
    VReg jLom1 = b.addi(jLo, -1);
    VReg vdiag = b.loadx(vPtr, b.shli(jLom1, 3));

    // Cell (i, 0): leading gap in b, clamped like every other cell.
    VReg v0 = b.sub(b.sub(zero, wg), b.mul(i, ws));
    VReg lim0 = b.sub(best, xd);
    {
        int cthen = b.newBlock("g0_then");
        int cjoin = b.newBlock("g0_join");
        b.br(Cond::LT, v0, lim0, cthen, cjoin);
        b.setBlock(cthen);
        b.copyTo(v0, neg);
        b.jump(cjoin);
        b.setBlock(cjoin);
    }
    b.store(v0, vPtr, 0);
    {
        // Window bookkeeping for column 0 (jLo == 1 only).
        int chk = b.newBlock("g0_chk");
        int set = b.newBlock("g0_set");
        int skip = b.newBlock("g0_skip");
        b.br(Cond::EQ, jLo, one, chk, skip);
        b.setBlock(chk);
        b.br(Cond::GT, v0, neg, set, skip);
        b.setBlock(set);
        b.copyTo(newLo, zero);
        b.copyTo(newHi, zero);
        b.jump(skip);
        b.setBlock(skip);
    }

    VReg vprev = b.fn().newReg();
    b.copyTo(vprev, b.loadx(vPtr, b.shli(jLom1, 3)));
    VReg jj = b.fn().newReg();
    b.copyTo(jj, jLo);
    VReg joff = b.shli(jLo, 3);
    VReg bidx = b.fn().newReg();
    b.copyTo(bidx, jLom1);
    int kbody = b.newBlock("gk_body");
    b.jump(kbody);

    b.setBlock(kbody);
    VReg bj = b.loadx(bPtr, bidx, 1, false);
    VReg w = b.load(b.add(arowp, b.shli(bj, 2)), 0, 4, true);

    // e = max(e - ws, V[j-1] - wg - ws)
    b.subInto(e, ws);
    VReg t1 = b.sub(b.sub(vprev, wg), ws);
    runningMax(b, hand, e, t1, "ge");

    // f = max(F[j] - ws, V[j] - wg - ws); the human missed this one.
    VReg vj = b.loadx(vPtr, joff);
    VReg fold = b.loadx(fPtr, joff);
    VReg f = b.fn().newReg();
    b.copyTo(f, b.sub(fold, ws));
    VReg t2 = b.sub(b.sub(vj, wg), ws);
    runningMax(b, false, f, t2, "gf");
    b.storex(f, fPtr, joff);

    VReg g = b.add(vdiag, w);
    b.copyTo(vdiag, vj);
    VReg v = b.fn().newReg();
    b.copyTo(v, e);
    runningMax(b, hand, v, f, "gvf");
    runningMax(b, hand, v, g, "gvg");

    // x-drop clamp: if (v < best - xd) v = neg.
    VReg lim = b.sub(best, xd);
    {
        int cthen = b.newBlock("gc_then");
        int cjoin = b.newBlock("gc_join");
        b.br(Cond::LT, v, lim, cthen, cjoin);
        b.setBlock(cthen);
        b.copyTo(v, neg);
        b.jump(cjoin);
        b.setBlock(cjoin);
    }
    b.storex(v, vPtr, joff);
    b.copyTo(vprev, v);

    // Live-window bookkeeping: nested control flow, not a hammock.
    {
        int alive = b.newBlock("ga_alive");
        int setlo = b.newBlock("ga_setlo");
        int hibest = b.newBlock("ga_hibest");
        int cont = b.newBlock("ga_cont");
        b.br(Cond::GT, v, neg, alive, cont);
        b.setBlock(alive);
        b.br(Cond::LT, newLo, zero, setlo, hibest);
        b.setBlock(setlo);
        b.copyTo(newLo, jj);
        b.jump(hibest);
        b.setBlock(hibest);
        b.copyTo(newHi, jj);
        runningMax(b, false, best, v, "gbest");
        b.jump(cont);
        b.setBlock(cont);
    }
    b.addiInto(joff, 8);
    b.addiInto(bidx, 1);
    loopEnd(b, jj, rowTop, kbody, "gk");

    // Dead row ends the extension; otherwise shrink/advance the window.
    int live = b.newBlock("grow_live");
    b.br(Cond::LT, newLo, zero, done, live);
    b.setBlock(live);
    b.copyTo(jLo, newLo);
    runningMax(b, false, jLo, one, "gjlo"); // jLo = max(newLo, 1)
    b.copyTo(jHi, newHi);
    b.copyTo(i, b.addi(i, 1));
    int oend = b.newBlock("gouter_end");
    b.br(Cond::LE, i, aLen, ohead, oend);
    b.setBlock(oend);
    b.jump(done);

    b.setBlock(done);
    b.ret(best);
    return fn;
}

/**
 * Sankoff small parsimony, one site (the Phylip extension of the
 * paper's section VIII).
 * Args: 0 nodesPtr (3 int64 per node in post-order: left child index,
 *       right child index, leaf state; children are -1 for leaves),
 *       1 numNodes, 2 costPtr (K*K int64 row-major), 3 workPtr
 *       (numNodes*K int64), 4 K.
 * Returns min over root states; the root is the last node.
 */
Function
buildSankoffKernel(bool hand)
{
    Function fn;
    fn.name = hand ? "sankoff_hand" : "sankoff";
    IrBuilder b(fn);
    b.declareArgs(5);
    const VReg nodes = 0, numNodes = 1, costPtr = 2, workPtr = 3,
               K = 4;

    int entry = b.newBlock("entry");
    b.setBlock(entry);
    VReg big = b.iconst(1LL << 40);
    VReg zero = b.iconst(0);
    VReg rowBytes = b.shli(K, 3);
    VReg n = b.iconst(0);
    VReg nm1 = b.addi(numNodes, -1);

    int nbody = b.newBlock("s_node");
    b.jump(nbody);
    b.setBlock(nbody);
    VReg rec = b.add(nodes, b.muli(n, 24));
    VReg left = b.load(rec, 0);
    VReg right = b.load(rec, 8);
    VReg leafState = b.load(rec, 16);
    VReg dpn = b.add(workPtr, b.mul(n, rowBytes));

    int isLeaf = b.newBlock("s_leaf");
    int isInner = b.newBlock("s_inner");
    int nodeDone = b.newBlock("s_node_done");
    b.br(Cond::LT, left, zero, isLeaf, isInner);

    // Leaf: dp[n][s] = BIG except 0 at the observed state.
    b.setBlock(isLeaf);
    {
        VReg s0 = b.iconst(0);
        VReg off = b.iconst(0);
        int lbody = b.newBlock("s_leaf_fill");
        b.jump(lbody);
        b.setBlock(lbody);
        b.storex(big, dpn, off);
        b.addiInto(off, 8);
        b.copyTo(s0, b.addi(s0, 1));
        int lexit = b.newBlock("s_leaf_exit");
        b.br(Cond::LT, s0, K, lbody, lexit);
        b.setBlock(lexit);
        b.storex(zero, dpn, b.shli(leafState, 3));
        b.jump(nodeDone);
    }

    // Internal node: dp[n][s] = min_t(dpL[t]+w[s][t])
    //                          + min_t(dpR[t]+w[s][t]).
    b.setBlock(isInner);
    {
        VReg dl = b.add(workPtr, b.mul(left, rowBytes));
        VReg dr = b.add(workPtr, b.mul(right, rowBytes));
        VReg s0 = b.iconst(0);
        VReg soff = b.iconst(0);
        VReg crow = b.fn().newReg();
        b.copyTo(crow, costPtr);
        int sbody = b.newBlock("s_state");
        b.jump(sbody);
        b.setBlock(sbody);
        VReg bl = b.fn().newReg();
        b.copyTo(bl, big);
        VReg br2 = b.fn().newReg();
        b.copyTo(br2, big);
        VReg toff = b.iconst(0);
        VReg t0 = b.iconst(0);
        int tbody = b.newBlock("s_trans");
        b.jump(tbody);
        b.setBlock(tbody);
        VReg w = b.loadx(crow, toff);
        VReg cl = b.add(b.loadx(dl, toff), w);
        runningMin(b, hand, bl, cl, "s_minl");
        VReg cr = b.add(b.loadx(dr, toff), w);
        runningMin(b, hand, br2, cr, "s_minr");
        b.addiInto(toff, 8);
        b.copyTo(t0, b.addi(t0, 1));
        int texit = b.newBlock("s_trans_exit");
        b.br(Cond::LT, t0, K, tbody, texit);
        b.setBlock(texit);
        b.storex(b.add(bl, br2), dpn, soff);
        b.copyTo(crow, b.add(crow, rowBytes));
        b.addiInto(soff, 8);
        b.copyTo(s0, b.addi(s0, 1));
        int sexit = b.newBlock("s_state_exit");
        b.br(Cond::LT, s0, K, sbody, sexit);
        b.setBlock(sexit);
        b.jump(nodeDone);
    }

    b.setBlock(nodeDone);
    b.copyTo(n, b.addi(n, 1));
    int rootBlk = b.newBlock("s_root");
    b.br(Cond::LE, n, nm1, nbody, rootBlk);

    // Root: minimum over the last node's states.
    b.setBlock(rootBlk);
    VReg droot = b.add(workPtr, b.mul(nm1, rowBytes));
    VReg best = b.fn().newReg();
    b.copyTo(best, big);
    VReg roff = b.iconst(0);
    VReg r0 = b.iconst(0);
    int rbody = b.newBlock("s_root_scan");
    b.jump(rbody);
    b.setBlock(rbody);
    VReg v = b.loadx(droot, roff);
    runningMin(b, hand, best, v, "s_root_min");
    b.addiInto(roff, 8);
    b.copyTo(r0, b.addi(r0, 1));
    int rexit = b.newBlock("s_root_exit");
    b.br(Cond::LT, r0, K, rbody, rexit);
    b.setBlock(rexit);
    b.ret(best);
    return fn;
}

} // namespace

const char *
kernelName(KernelKind k)
{
    switch (k) {
      case KernelKind::ForwardPass: return "forward_pass";
      case KernelKind::Dropgsw: return "dropgsw";
      case KernelKind::P7Viterbi: return "P7Viterbi";
      case KernelKind::SemiGAlign: return "SEMI_G_ALIGN";
      case KernelKind::Sankoff: return "sankoff";
      default: return "?";
    }
}

const char *
kernelApp(KernelKind k)
{
    switch (k) {
      case KernelKind::ForwardPass: return "Clustalw";
      case KernelKind::Dropgsw: return "Fasta";
      case KernelKind::P7Viterbi: return "Hmmer";
      case KernelKind::SemiGAlign: return "Blast";
      case KernelKind::Sankoff: return "Phylip";
      default: return "?";
    }
}

mpc::Function
buildKernelIr(KernelKind k, bool hand)
{
    switch (k) {
      case KernelKind::ForwardPass: {
        // Clustalw: hand predicates everything; the branchy build
        // keeps the F row through memory (rejected by gcc).
        AlignKernelShape s;
        s.local = false;
        s.ePred = s.fPred = s.vPred = s.bestPred = hand;
        s.fInMemory = !hand;
        return buildAlignKernel(
            hand ? "forward_pass_hand" : "forward_pass", s);
      }
      case KernelKind::Dropgsw: {
        // Fasta: all hammocks are register-style (the compiler can
        // convert every one); the hand build misses the E/F updates.
        AlignKernelShape s;
        s.local = true;
        s.ePred = hand;
        s.fPred = false; // the update the human missed inside a macro
        s.vPred = hand;
        s.bestPred = hand;
        s.fInMemory = false;
        return buildAlignKernel(hand ? "dropgsw_hand" : "dropgsw", s);
      }
      case KernelKind::P7Viterbi:
        return buildViterbiKernel(hand);
      case KernelKind::SemiGAlign:
        return buildSemiGKernel(hand);
      case KernelKind::Sankoff:
        return buildSankoffKernel(hand);
      default:
        panic("bad kernel kind");
    }
}

mpc::Compiled
compileKernel(KernelKind k, mpc::Variant v)
{
    return mpc::compile(buildKernelIr(k, mpc::variantUsesHandIr(v)),
                        mpc::optionsFor(v));
}

} // namespace bp5::kernels
