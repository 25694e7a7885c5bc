#include "sim/exec.h"

#include <bit>

#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/predictor.h"
#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

using isa::Op;

namespace {

/** Evaluate a BO condition (with CTR side effect applied by caller). */
bool
evalBranchCond(unsigned bo, unsigned bi, const CoreState &st, uint64_t ctr)
{
    switch (bo) {
      case isa::BO_ALWAYS:
        return true;
      case isa::BO_COND_TRUE:
        return st.crBit(bi);
      case isa::BO_COND_FALSE:
        return !st.crBit(bi);
      case isa::BO_DNZ:
        return ctr != 0;
      case isa::BO_DZ:
        return ctr == 0;
      default:
        panic("unsupported BO pattern %u", bo);
    }
}

void
setCr0(CoreState &st, uint64_t result)
{
    int64_t s = static_cast<int64_t>(result);
    unsigned f = 0;
    if (s < 0)
        f |= 1u << isa::CR_LT;
    else if (s > 0)
        f |= 1u << isa::CR_GT;
    else
        f |= 1u << isa::CR_EQ;
    st.setCrField(0, f);
}

void
doCompare(CoreState &st, unsigned bf, bool l64, bool sign, uint64_t a,
          uint64_t b)
{
    if (!l64) {
        if (sign) {
            a = static_cast<uint64_t>(sext(a, 32));
            b = static_cast<uint64_t>(sext(b, 32));
        } else {
            a &= mask(32);
            b &= mask(32);
        }
    }
    unsigned f = 0;
    bool lt, gt;
    if (sign) {
        lt = static_cast<int64_t>(a) < static_cast<int64_t>(b);
        gt = static_cast<int64_t>(a) > static_cast<int64_t>(b);
    } else {
        lt = a < b;
        gt = a > b;
    }
    if (lt)
        f |= 1u << isa::CR_LT;
    else if (gt)
        f |= 1u << isa::CR_GT;
    else
        f |= 1u << isa::CR_EQ;
    st.setCrField(bf, f);
}

// ------------------------------------------------------------------
// Micro-op handlers.  Each handler fully retires one instruction:
// architectural update, functional counter bumps and optional warming.
// It receives the instruction's pc and returns the next one, so the
// pc stays in a register across runFast's loop.  Semantics mirror
// Executor::stepDecoded() (the differential engine test holds the two
// paths bit-identical).
// ------------------------------------------------------------------

#define OP_HANDLER(name) \
    uint64_t name(const MicroOp &mo, FastCtx &x, uint64_t pc)

// --- D-form arithmetic / logical (immediate pre-extended, pre-shifted)

OP_HANDLER(hAddi)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = (i.ra ? x.st.gpr[i.ra] : 0) + mo.imm;
    return pc + 4;
}

OP_HANDLER(hMulli)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = x.st.gpr[i.ra] * mo.imm;
    return pc + 4;
}

OP_HANDLER(hOri)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = x.st.gpr[i.ra] | mo.imm;
    return pc + 4;
}

OP_HANDLER(hXori)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = x.st.gpr[i.ra] ^ mo.imm;
    return pc + 4;
}

OP_HANDLER(hAndiRc)
{
    const isa::Inst &i = mo.inst;
    uint64_t r = x.st.gpr[i.ra] & mo.imm;
    x.st.gpr[i.rt] = r;
    setCr0(x.st, r);
    return pc + 4;
}

OP_HANDLER(hCmpi)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, true, x.st.gpr[i.ra], mo.imm);
    return pc + 4;
}

OP_HANDLER(hCmpli)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, false, x.st.gpr[i.ra], mo.imm);
    return pc + 4;
}

// --- loads / stores (templated over width, extension and addressing)

template <unsigned Size, bool Sign, bool Indexed>
OP_HANDLER(hLoad)
{
    const isa::Inst &i = mo.inst;
    uint64_t base = i.ra ? x.st.gpr[i.ra] : 0;
    uint64_t ea = base + (Indexed ? x.st.gpr[i.rb] : mo.imm);
    ++x.c.loads;
    if (x.l1d)
        x.l1d->access(ea, false);
    uint64_t v;
    if constexpr (Size == 1)
        v = x.mem.readU8(ea);
    else if constexpr (Size == 2)
        v = x.mem.readU16(ea);
    else if constexpr (Size == 4)
        v = x.mem.readU32(ea);
    else
        v = x.mem.readU64(ea);
    if constexpr (Sign && Size < 8)
        v = static_cast<uint64_t>(sext(v, Size * 8));
    x.st.gpr[i.rt] = v;
    return pc + 4;
}

template <unsigned Size, bool Indexed>
OP_HANDLER(hStore)
{
    const isa::Inst &i = mo.inst;
    uint64_t base = i.ra ? x.st.gpr[i.ra] : 0;
    uint64_t ea = base + (Indexed ? x.st.gpr[i.rb] : mo.imm);
    ++x.c.stores;
    if (x.l1d)
        x.l1d->access(ea, true);
    uint64_t v = x.st.gpr[i.rt];
    if constexpr (Size == 1)
        x.mem.writeU8(ea, static_cast<uint8_t>(v));
    else if constexpr (Size == 2)
        x.mem.writeU16(ea, static_cast<uint16_t>(v));
    else if constexpr (Size == 4)
        x.mem.writeU32(ea, static_cast<uint32_t>(v));
    else
        x.mem.writeU64(ea, v);
    return pc + 4;
}

// --- X/XO-form ALU (record form folded into the handler)

#define ALU_RC(name, expr)                                            \
    OP_HANDLER(name)                                                  \
    {                                                                 \
        const isa::Inst &i = mo.inst;                                 \
        auto &g = x.st.gpr;                                           \
        uint64_t a = g[i.ra];                                         \
        uint64_t b = g[i.rb];                                         \
        (void)a;                                                      \
        (void)b;                                                      \
        uint64_t r = (expr);                                          \
        g[i.rt] = r;                                                  \
        if (i.rc)                                                     \
            setCr0(x.st, r);                                          \
        return pc + 4;                                                \
    }

#define ALU_NORC(name, expr)                                          \
    OP_HANDLER(name)                                                  \
    {                                                                 \
        const isa::Inst &i = mo.inst;                                 \
        auto &g = x.st.gpr;                                           \
        uint64_t a = g[i.ra];                                         \
        uint64_t b = g[i.rb];                                         \
        (void)a;                                                      \
        (void)b;                                                      \
        g[i.rt] = (expr);                                             \
        return pc + 4;                                                \
    }

ALU_RC(hAdd, a + b)
ALU_RC(hSubf, b - a) // rt = rb - ra (PowerPC subtract-from)
ALU_RC(hNeg, ~a + 1)
ALU_RC(hMulld, a * b)
ALU_RC(hDivd,
       (static_cast<int64_t>(b) == 0 ||
        (static_cast<int64_t>(a) == INT64_MIN &&
         static_cast<int64_t>(b) == -1))
           ? 0
           : static_cast<uint64_t>(static_cast<int64_t>(a) /
                                   static_cast<int64_t>(b)))
ALU_RC(hDivdu, b ? a / b : 0)
ALU_RC(hAnd, a & b)
ALU_RC(hAndc, a & ~b)
ALU_RC(hOr, a | b)
ALU_RC(hOrc, a | ~b)
ALU_RC(hXor, a ^ b)
ALU_RC(hNor, ~(a | b))
ALU_RC(hNand, ~(a & b))
ALU_RC(hEqv, ~(a ^ b))
ALU_RC(hSld, (b & 0x7f) >= 64 ? 0 : a << (b & 0x7f))
ALU_RC(hSrd, (b & 0x7f) >= 64 ? 0 : a >> (b & 0x7f))
ALU_RC(hSrad,
       static_cast<uint64_t>(
           (b & 0x7f) >= 64
               ? (static_cast<int64_t>(a) < 0 ? -1 : 0)
               : (static_cast<int64_t>(a) >> (b & 0x7f))))
ALU_RC(hExtsb, static_cast<uint64_t>(sext(a, 8)))
ALU_RC(hExtsh, static_cast<uint64_t>(sext(a, 16)))
ALU_RC(hExtsw, static_cast<uint64_t>(sext(a, 32)))
ALU_NORC(hCntlzd, static_cast<uint64_t>(std::countl_zero(a)))
ALU_NORC(hMaxd,
         static_cast<uint64_t>(
             static_cast<int64_t>(a) > static_cast<int64_t>(b)
                 ? static_cast<int64_t>(a)
                 : static_cast<int64_t>(b)))
ALU_NORC(hMind,
         static_cast<uint64_t>(
             static_cast<int64_t>(a) < static_cast<int64_t>(b)
                 ? static_cast<int64_t>(a)
                 : static_cast<int64_t>(b)))

// Shift-immediate forms carry the shift amount in the rb field, which
// is not a register number here, so only ra is read.
#define SHIFT_IMM(name, expr)                                         \
    OP_HANDLER(name)                                                  \
    {                                                                 \
        const isa::Inst &i = mo.inst;                                 \
        uint64_t a = x.st.gpr[i.ra];                                  \
        x.st.gpr[i.rt] = (expr);                                      \
        return pc + 4;                                                \
    }

SHIFT_IMM(hSldi, a << i.rb)
SHIFT_IMM(hSrdi, a >> i.rb)
SHIFT_IMM(hSradi, static_cast<uint64_t>(static_cast<int64_t>(a) >> i.rb))

#undef ALU_RC
#undef ALU_NORC
#undef SHIFT_IMM

OP_HANDLER(hIsel)
{
    const isa::Inst &i = mo.inst;
    auto &g = x.st.gpr;
    g[i.rt] = x.st.crBit(i.bi) ? g[i.ra] : g[i.rb];
    return pc + 4;
}

OP_HANDLER(hCmp)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, true, x.st.gpr[i.ra], x.st.gpr[i.rb]);
    return pc + 4;
}

OP_HANDLER(hCmpl)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, false, x.st.gpr[i.ra], x.st.gpr[i.rb]);
    return pc + 4;
}

// --- branches (direct targets precomputed into mo.imm)

/** BTAC warming with the detailed model's exact update rule. */
inline void
warmBtac(FastCtx &x, uint64_t pc, bool taken, uint64_t target)
{
    Btac::Lookup bl = x.btac->lookup(pc);
    x.btac->update(pc, taken, taken ? target : 0, bl);
}

OP_HANDLER(hB)
{
    ++x.c.branches;
    ++x.c.takenBranches;
    if (x.btac)
        warmBtac(x, pc, true, mo.imm);
    if (mo.inst.lk)
        x.st.lr = pc + 4;
    return mo.imm;
}

/** BC with BO_ALWAYS: unconditional, not a condBranch. */
OP_HANDLER(hBcAlways)
{
    ++x.c.branches;
    ++x.c.takenBranches;
    if (x.btac)
        warmBtac(x, pc, true, mo.imm);
    if (mo.inst.lk)
        x.st.lr = pc + 4;
    return mo.imm;
}

/** Shared tail of the conditional BC variants; returns the next pc. */
inline uint64_t
finishBc(const MicroOp &mo, FastCtx &x, uint64_t pc, bool taken)
{
    ++x.c.branches;
    ++x.c.condBranches;
    if (taken)
        ++x.c.takenBranches;
    if (x.pred)
        x.pred->update(pc, taken);
    if (x.btac)
        warmBtac(x, pc, taken, mo.imm);
    if (mo.inst.lk)
        x.st.lr = pc + 4;
    return taken ? mo.imm : pc + 4;
}

OP_HANDLER(hBcTrue) { return finishBc(mo, x, pc, x.st.crBit(mo.inst.bi)); }
OP_HANDLER(hBcFalse) { return finishBc(mo, x, pc, !x.st.crBit(mo.inst.bi)); }

OP_HANDLER(hBcDnz)
{
    uint64_t v = --x.st.ctr;
    return finishBc(mo, x, pc, v != 0);
}

OP_HANDLER(hBcDz)
{
    uint64_t v = --x.st.ctr;
    return finishBc(mo, x, pc, v == 0);
}

/** Indirect branches: target read from LR or CTR at execution. */
template <bool ViaCtr>
OP_HANDLER(hBcReg)
{
    const isa::Inst &i = mo.inst;
    bool cond = i.bo != isa::BO_ALWAYS;
    bool taken = evalBranchCond(i.bo, i.bi, x.st, x.st.ctr);
    uint64_t target = (ViaCtr ? x.st.ctr : x.st.lr) & ~3ULL;
    ++x.c.branches;
    if (taken)
        ++x.c.takenBranches;
    if (cond) {
        ++x.c.condBranches;
        if (x.pred)
            x.pred->update(pc, taken);
    }
    if (x.btac)
        warmBtac(x, pc, taken, target);
    if (i.lk)
        x.st.lr = pc + 4;
    return taken ? target : pc + 4;
}

// --- CR logic, SPR moves, syscall

OP_HANDLER(hCrand)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, x.st.crBit(i.ra) && x.st.crBit(i.rb));
    return pc + 4;
}

OP_HANDLER(hCror)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, x.st.crBit(i.ra) || x.st.crBit(i.rb));
    return pc + 4;
}

OP_HANDLER(hCrxor)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, x.st.crBit(i.ra) != x.st.crBit(i.rb));
    return pc + 4;
}

OP_HANDLER(hCrnor)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, !(x.st.crBit(i.ra) || x.st.crBit(i.rb)));
    return pc + 4;
}

OP_HANDLER(hMtLr)
{
    x.st.lr = x.st.gpr[mo.inst.rt];
    return pc + 4;
}

OP_HANDLER(hMtCtr)
{
    x.st.ctr = x.st.gpr[mo.inst.rt];
    return pc + 4;
}

OP_HANDLER(hMfLr)
{
    x.st.gpr[mo.inst.rt] = x.st.lr;
    return pc + 4;
}

OP_HANDLER(hMfCtr)
{
    x.st.gpr[mo.inst.rt] = x.st.ctr;
    return pc + 4;
}

OP_HANDLER(hMtsprBad)
{
    (void)x;
    (void)pc;
    panic("mtspr: unsupported SPR %u", mo.inst.spr);
}

OP_HANDLER(hMfsprBad)
{
    (void)x;
    (void)pc;
    panic("mfspr: unsupported SPR %u", mo.inst.spr);
}

OP_HANDLER(hMfcr)
{
    (void)mo;
    x.st.gpr[mo.inst.rt] = x.st.cr;
    return pc + 4;
}

OP_HANDLER(hSc)
{
    (void)mo;
    uint64_t fn = x.st.gpr[0];
    uint64_t arg = x.st.gpr[3];
    switch (fn) {
      case isa::SYS_EXIT:
        x.halted = true;
        x.exitCode = static_cast<int64_t>(arg);
        break;
      case isa::SYS_PUTC:
        x.console += static_cast<char>(arg & 0xff);
        break;
      case isa::SYS_PUTINT:
        x.console += strprintf("%lld",
                               static_cast<long long>(
                                   static_cast<int64_t>(arg)));
        break;
      case isa::SYS_PUTHEX:
        x.console += strprintf("0x%llx",
                               static_cast<unsigned long long>(arg));
        break;
      default:
        panic("unknown syscall %llu",
              static_cast<unsigned long long>(fn));
    }
    return pc + 4;
}

#undef OP_HANDLER

} // namespace

void
Executor::setImage(uint64_t base, size_t bytes)
{
    imageBase_ = base;
    imageBytes_ = bytes;
    ops_.assign(bytes / 4, MicroOp());
}

void
Executor::invalidateDecodeCache()
{
    for (MicroOp &mo : ops_)
        mo = MicroOp();
}

void
Executor::buildMicroOp(MicroOp &mo, uint64_t pc) const
{
    uint32_t word = mem_.readU32(pc);
    isa::Inst d = isa::decode(word);
    if (!d.valid()) {
        panic("invalid instruction 0x%08x at pc 0x%llx", word,
              static_cast<unsigned long long>(pc));
    }
    mo.inst = d;

    uint64_t simm = static_cast<uint64_t>(static_cast<int64_t>(d.imm));
    uint64_t uimm = static_cast<uint32_t>(d.imm);
    MicroOp::Fn fn = nullptr;
    switch (d.op) {
      case Op::ADDI: fn = hAddi; mo.imm = simm; break;
      case Op::ADDIS: fn = hAddi; mo.imm = simm << 16; break;
      case Op::MULLI: fn = hMulli; mo.imm = simm; break;
      case Op::ORI: fn = hOri; mo.imm = uimm; break;
      case Op::ORIS: fn = hOri; mo.imm = uimm << 16; break;
      case Op::XORI: fn = hXori; mo.imm = uimm; break;
      case Op::ANDI_RC: fn = hAndiRc; mo.imm = uimm; break;
      case Op::CMPI: fn = hCmpi; mo.imm = simm; break;
      case Op::CMPLI: fn = hCmpli; mo.imm = uimm; break;

      case Op::LBZ: fn = hLoad<1, false, false>; mo.imm = simm; break;
      case Op::LHZ: fn = hLoad<2, false, false>; mo.imm = simm; break;
      case Op::LHA: fn = hLoad<2, true, false>; mo.imm = simm; break;
      case Op::LWZ: fn = hLoad<4, false, false>; mo.imm = simm; break;
      case Op::LWA: fn = hLoad<4, true, false>; mo.imm = simm; break;
      case Op::LD: fn = hLoad<8, false, false>; mo.imm = simm; break;
      case Op::STB: fn = hStore<1, false>; mo.imm = simm; break;
      case Op::STH: fn = hStore<2, false>; mo.imm = simm; break;
      case Op::STW: fn = hStore<4, false>; mo.imm = simm; break;
      case Op::STD: fn = hStore<8, false>; mo.imm = simm; break;

      case Op::LBZX: fn = hLoad<1, false, true>; break;
      case Op::LHZX: fn = hLoad<2, false, true>; break;
      case Op::LHAX: fn = hLoad<2, true, true>; break;
      case Op::LWZX: fn = hLoad<4, false, true>; break;
      case Op::LWAX: fn = hLoad<4, true, true>; break;
      case Op::LDX: fn = hLoad<8, false, true>; break;
      case Op::STBX: fn = hStore<1, true>; break;
      case Op::STHX: fn = hStore<2, true>; break;
      case Op::STWX: fn = hStore<4, true>; break;
      case Op::STDX: fn = hStore<8, true>; break;

      case Op::ADD: fn = hAdd; break;
      case Op::SUBF: fn = hSubf; break;
      case Op::NEG: fn = hNeg; break;
      case Op::MULLD: fn = hMulld; break;
      case Op::DIVD: fn = hDivd; break;
      case Op::DIVDU: fn = hDivdu; break;
      case Op::AND: fn = hAnd; break;
      case Op::ANDC: fn = hAndc; break;
      case Op::OR: fn = hOr; break;
      case Op::ORC: fn = hOrc; break;
      case Op::XOR: fn = hXor; break;
      case Op::NOR: fn = hNor; break;
      case Op::NAND: fn = hNand; break;
      case Op::EQV: fn = hEqv; break;
      case Op::SLD: fn = hSld; break;
      case Op::SRD: fn = hSrd; break;
      case Op::SRAD: fn = hSrad; break;
      case Op::SLDI: fn = hSldi; break;
      case Op::SRDI: fn = hSrdi; break;
      case Op::SRADI: fn = hSradi; break;
      case Op::EXTSB: fn = hExtsb; break;
      case Op::EXTSH: fn = hExtsh; break;
      case Op::EXTSW: fn = hExtsw; break;
      case Op::CNTLZD: fn = hCntlzd; break;
      case Op::CMP: fn = hCmp; break;
      case Op::CMPL: fn = hCmpl; break;
      case Op::ISEL: fn = hIsel; break;
      case Op::MAXD: fn = hMaxd; break;
      case Op::MIND: fn = hMind; break;

      case Op::B:
      case Op::BC: {
        mo.imm = d.aa ? static_cast<uint64_t>(d.imm)
                      : pc + static_cast<int64_t>(d.imm);
        if (d.op == Op::B) {
            fn = hB;
        } else {
            switch (d.bo) {
              case isa::BO_ALWAYS: fn = hBcAlways; break;
              case isa::BO_COND_TRUE: fn = hBcTrue; break;
              case isa::BO_COND_FALSE: fn = hBcFalse; break;
              case isa::BO_DNZ: fn = hBcDnz; break;
              case isa::BO_DZ: fn = hBcDz; break;
              default:
                panic("unsupported BO pattern %u", d.bo);
            }
        }
        break;
      }
      case Op::BCLR: fn = hBcReg<false>; break;
      case Op::BCCTR: fn = hBcReg<true>; break;

      case Op::CRAND: fn = hCrand; break;
      case Op::CROR: fn = hCror; break;
      case Op::CRXOR: fn = hCrxor; break;
      case Op::CRNOR: fn = hCrnor; break;

      case Op::MTSPR:
        fn = d.spr == isa::SPR_LR    ? hMtLr
             : d.spr == isa::SPR_CTR ? hMtCtr
                                     : hMtsprBad;
        break;
      case Op::MFSPR:
        fn = d.spr == isa::SPR_LR    ? hMfLr
             : d.spr == isa::SPR_CTR ? hMfCtr
                                     : hMfsprBad;
        break;
      case Op::MFCR: fn = hMfcr; break;
      case Op::SC: fn = hSc; break;

      default:
        panic("unimplemented opcode %u at pc 0x%llx",
              static_cast<unsigned>(d.op),
              static_cast<unsigned long long>(pc));
    }
    mo.fn = fn;
}

Executor::FastResult
Executor::runFast(uint64_t max, Counters &c, const Warming *warm)
{
    FastCtx x{state_, mem_, c, console_};
    if (warm) {
        x.pred = warm->pred;
        x.btac = warm->btac;
        x.l1d = warm->l1d;
    }

    // The pc and the image live in locals (registers) for the whole
    // burst; only the out-of-image fallback syncs state_.pc.
    FastResult res;
    uint64_t n = 0;
    uint64_t pc = state_.pc;
    MicroOp *const ops = ops_.data();
    const uint64_t base = imageBase_;
    const uint64_t bytes = predecode_ ? imageBytes_ : 0;
    while (n < max) {
        uint64_t off = pc - base;
        if (off < bytes && (off & 3) == 0) {
            MicroOp &mo = ops[off >> 2];
            if (!mo.fn)
                buildMicroOp(mo, pc);
            ++c.opCount[size_t(mo.inst.op)];
            pc = mo.fn(mo, x, pc);
            ++n;
            if (x.halted) {
                res.halted = true;
                res.exitCode = x.exitCode;
                break;
            }
            continue;
        }

        // Out-of-image (or predecode disabled): per-step execution
        // with the same functional counter accounting and warming.
        state_.pc = pc;
        StepInfo info = step();
        pc = state_.pc;
        ++n;
        ++c.opCount[size_t(info.inst.op)];
        if (info.isBranch) {
            ++c.branches;
            if (info.isCondBranch) {
                ++c.condBranches;
                if (x.pred)
                    x.pred->update(info.pc, info.taken);
            }
            if (info.taken)
                ++c.takenBranches;
            if (x.btac)
                warmBtac(x, info.pc, info.taken,
                         info.taken ? info.target : 0);
        }
        if (info.isLoad) {
            ++c.loads;
            if (x.l1d)
                x.l1d->access(info.memAddr, false);
        }
        if (info.isStore) {
            ++c.stores;
            if (x.l1d)
                x.l1d->access(info.memAddr, true);
        }
        if (info.halted) {
            res.halted = true;
            res.exitCode = info.exitCode;
            break;
        }
    }

    c.instructions += n;
    state_.pc = pc;
    res.executed = n;
    return res;
}

void
Executor::execSyscall(StepInfo &info)
{
    uint64_t fn = state_.gpr[0];
    uint64_t arg = state_.gpr[3];
    switch (fn) {
      case isa::SYS_EXIT:
        info.halted = true;
        info.exitCode = static_cast<int64_t>(arg);
        break;
      case isa::SYS_PUTC:
        console_ += static_cast<char>(arg & 0xff);
        break;
      case isa::SYS_PUTINT:
        console_ += strprintf("%lld",
                              static_cast<long long>(
                                  static_cast<int64_t>(arg)));
        break;
      case isa::SYS_PUTHEX:
        console_ += strprintf("0x%llx",
                              static_cast<unsigned long long>(arg));
        break;
      default:
        panic("unknown syscall %llu",
              static_cast<unsigned long long>(fn));
    }
}

StepInfo
Executor::step()
{
    uint64_t pc = state_.pc;
    if (predecode_) {
        uint64_t off = pc - imageBase_;
        if (off < imageBytes_ && (off & 3) == 0) {
            MicroOp &mo = ops_[off >> 2];
            if (!mo.fn)
                buildMicroOp(mo, pc);
            return stepDecoded(mo.inst, pc);
        }
    }
    uint32_t word = mem_.readU32(pc);
    isa::Inst d = isa::decode(word);
    if (!d.valid()) {
        panic("invalid instruction 0x%08x at pc 0x%llx", word,
              static_cast<unsigned long long>(pc));
    }
    return stepDecoded(d, pc);
}

StepInfo
Executor::stepDecoded(const isa::Inst &inst, uint64_t pc)
{
    StepInfo info;
    info.pc = pc;
    info.inst = inst;

    auto &g = state_.gpr;
    uint64_t nextPc = pc + 4;

    // Base value for D/X-form address and addi computations.
    auto baseRa = [&]() -> uint64_t {
        return inst.ra == 0 ? 0 : g[inst.ra];
    };
    auto load = [&](unsigned size, bool sign, uint64_t ea) {
        info.isLoad = true;
        info.memAddr = ea;
        info.memSize = size;
        uint64_t v = 0;
        switch (size) {
          case 1: v = mem_.readU8(ea); break;
          case 2: v = mem_.readU16(ea); break;
          case 4: v = mem_.readU32(ea); break;
          case 8: v = mem_.readU64(ea); break;
        }
        if (sign && size < 8)
            v = static_cast<uint64_t>(sext(v, size * 8));
        g[inst.rt] = v;
    };
    auto store = [&](unsigned size, uint64_t ea) {
        info.isStore = true;
        info.memAddr = ea;
        info.memSize = size;
        uint64_t v = g[inst.rt];
        switch (size) {
          case 1: mem_.writeU8(ea, static_cast<uint8_t>(v)); break;
          case 2: mem_.writeU16(ea, static_cast<uint16_t>(v)); break;
          case 4: mem_.writeU32(ea, static_cast<uint32_t>(v)); break;
          case 8: mem_.writeU64(ea, v); break;
        }
    };
    auto branchTo = [&](uint64_t target, bool taken) {
        info.isBranch = true;
        info.taken = taken;
        if (taken) {
            info.target = target;
            nextPc = target;
        }
    };
    auto record = [&](uint64_t result) {
        if (inst.rc)
            setCr0(state_, result);
    };

    int64_t simm = inst.imm;
    uint64_t uimm = static_cast<uint32_t>(inst.imm);

    switch (inst.op) {
      case Op::ADDI:
        g[inst.rt] = baseRa() + static_cast<uint64_t>(simm);
        break;
      case Op::ADDIS:
        g[inst.rt] = baseRa() + (static_cast<uint64_t>(simm) << 16);
        break;
      case Op::MULLI:
        g[inst.rt] = g[inst.ra] * static_cast<uint64_t>(simm);
        break;
      case Op::ORI:
        g[inst.rt] = g[inst.ra] | uimm;
        break;
      case Op::ORIS:
        g[inst.rt] = g[inst.ra] | (uimm << 16);
        break;
      case Op::XORI:
        g[inst.rt] = g[inst.ra] ^ uimm;
        break;
      case Op::ANDI_RC:
        g[inst.rt] = g[inst.ra] & uimm;
        setCr0(state_, g[inst.rt]);
        break;
      case Op::CMPI:
        doCompare(state_, inst.bf, inst.l64, true, g[inst.ra],
                  static_cast<uint64_t>(simm));
        break;
      case Op::CMPLI:
        doCompare(state_, inst.bf, inst.l64, false, g[inst.ra], uimm);
        break;

      case Op::LBZ: load(1, false, baseRa() + simm); break;
      case Op::LHZ: load(2, false, baseRa() + simm); break;
      case Op::LHA: load(2, true, baseRa() + simm); break;
      case Op::LWZ: load(4, false, baseRa() + simm); break;
      case Op::LWA: load(4, true, baseRa() + simm); break;
      case Op::LD:  load(8, false, baseRa() + simm); break;
      case Op::STB: store(1, baseRa() + simm); break;
      case Op::STH: store(2, baseRa() + simm); break;
      case Op::STW: store(4, baseRa() + simm); break;
      case Op::STD: store(8, baseRa() + simm); break;

      case Op::LBZX: load(1, false, baseRa() + g[inst.rb]); break;
      case Op::LHZX: load(2, false, baseRa() + g[inst.rb]); break;
      case Op::LHAX: load(2, true, baseRa() + g[inst.rb]); break;
      case Op::LWZX: load(4, false, baseRa() + g[inst.rb]); break;
      case Op::LWAX: load(4, true, baseRa() + g[inst.rb]); break;
      case Op::LDX:  load(8, false, baseRa() + g[inst.rb]); break;
      case Op::STBX: store(1, baseRa() + g[inst.rb]); break;
      case Op::STHX: store(2, baseRa() + g[inst.rb]); break;
      case Op::STWX: store(4, baseRa() + g[inst.rb]); break;
      case Op::STDX: store(8, baseRa() + g[inst.rb]); break;

      case Op::ADD:
        g[inst.rt] = g[inst.ra] + g[inst.rb];
        record(g[inst.rt]);
        break;
      case Op::SUBF: // rt = rb - ra (PowerPC subtract-from)
        g[inst.rt] = g[inst.rb] - g[inst.ra];
        record(g[inst.rt]);
        break;
      case Op::NEG:
        g[inst.rt] = ~g[inst.ra] + 1;
        record(g[inst.rt]);
        break;
      case Op::MULLD:
        g[inst.rt] = g[inst.ra] * g[inst.rb];
        record(g[inst.rt]);
        break;
      case Op::DIVD: {
        int64_t a = static_cast<int64_t>(g[inst.ra]);
        int64_t b = static_cast<int64_t>(g[inst.rb]);
        // PowerPC leaves the result undefined for /0 and overflow; the
        // model defines it as 0 so runs stay deterministic.
        g[inst.rt] = (b == 0 || (a == INT64_MIN && b == -1))
                         ? 0
                         : static_cast<uint64_t>(a / b);
        record(g[inst.rt]);
        break;
      }
      case Op::DIVDU:
        g[inst.rt] = g[inst.rb] ? g[inst.ra] / g[inst.rb] : 0;
        record(g[inst.rt]);
        break;

      case Op::AND:  g[inst.rt] = g[inst.ra] & g[inst.rb]; record(g[inst.rt]); break;
      case Op::ANDC: g[inst.rt] = g[inst.ra] & ~g[inst.rb]; record(g[inst.rt]); break;
      case Op::OR:   g[inst.rt] = g[inst.ra] | g[inst.rb]; record(g[inst.rt]); break;
      case Op::ORC:  g[inst.rt] = g[inst.ra] | ~g[inst.rb]; record(g[inst.rt]); break;
      case Op::XOR:  g[inst.rt] = g[inst.ra] ^ g[inst.rb]; record(g[inst.rt]); break;
      case Op::NOR:  g[inst.rt] = ~(g[inst.ra] | g[inst.rb]); record(g[inst.rt]); break;
      case Op::NAND: g[inst.rt] = ~(g[inst.ra] & g[inst.rb]); record(g[inst.rt]); break;
      case Op::EQV:  g[inst.rt] = ~(g[inst.ra] ^ g[inst.rb]); record(g[inst.rt]); break;

      case Op::SLD: {
        unsigned sh = g[inst.rb] & 0x7f;
        g[inst.rt] = sh >= 64 ? 0 : g[inst.ra] << sh;
        record(g[inst.rt]);
        break;
      }
      case Op::SRD: {
        unsigned sh = g[inst.rb] & 0x7f;
        g[inst.rt] = sh >= 64 ? 0 : g[inst.ra] >> sh;
        record(g[inst.rt]);
        break;
      }
      case Op::SRAD: {
        unsigned sh = g[inst.rb] & 0x7f;
        int64_t v = static_cast<int64_t>(g[inst.ra]);
        g[inst.rt] = static_cast<uint64_t>(sh >= 64 ? (v < 0 ? -1 : 0)
                                                    : (v >> sh));
        record(g[inst.rt]);
        break;
      }
      case Op::SLDI:
        g[inst.rt] = g[inst.ra] << inst.rb;
        break;
      case Op::SRDI:
        g[inst.rt] = g[inst.ra] >> inst.rb;
        break;
      case Op::SRADI:
        g[inst.rt] = static_cast<uint64_t>(
            static_cast<int64_t>(g[inst.ra]) >> inst.rb);
        break;

      case Op::EXTSB:
        g[inst.rt] = static_cast<uint64_t>(sext(g[inst.ra], 8));
        record(g[inst.rt]);
        break;
      case Op::EXTSH:
        g[inst.rt] = static_cast<uint64_t>(sext(g[inst.ra], 16));
        record(g[inst.rt]);
        break;
      case Op::EXTSW:
        g[inst.rt] = static_cast<uint64_t>(sext(g[inst.ra], 32));
        record(g[inst.rt]);
        break;
      case Op::CNTLZD:
        g[inst.rt] = static_cast<uint64_t>(std::countl_zero(g[inst.ra]));
        break;

      case Op::CMP:
        doCompare(state_, inst.bf, inst.l64, true, g[inst.ra],
                  g[inst.rb]);
        break;
      case Op::CMPL:
        doCompare(state_, inst.bf, inst.l64, false, g[inst.ra],
                  g[inst.rb]);
        break;

      case Op::ISEL:
        g[inst.rt] = state_.crBit(inst.bi) ? g[inst.ra] : g[inst.rb];
        break;
      case Op::MAXD: {
        int64_t a = static_cast<int64_t>(g[inst.ra]);
        int64_t b = static_cast<int64_t>(g[inst.rb]);
        g[inst.rt] = static_cast<uint64_t>(a > b ? a : b);
        break;
      }
      case Op::MIND: {
        int64_t a = static_cast<int64_t>(g[inst.ra]);
        int64_t b = static_cast<int64_t>(g[inst.rb]);
        g[inst.rt] = static_cast<uint64_t>(a < b ? a : b);
        break;
      }

      case Op::B: {
        uint64_t target = inst.aa ? static_cast<uint64_t>(inst.imm)
                                  : pc + static_cast<int64_t>(inst.imm);
        if (inst.lk)
            state_.lr = pc + 4;
        branchTo(target, true);
        break;
      }
      case Op::BC: {
        uint64_t ctr = state_.ctr;
        if (inst.bo == isa::BO_DNZ || inst.bo == isa::BO_DZ)
            state_.ctr = --ctr;
        bool taken = evalBranchCond(inst.bo, inst.bi, state_, state_.ctr);
        if (inst.lk)
            state_.lr = pc + 4;
        uint64_t target = inst.aa ? static_cast<uint64_t>(inst.imm)
                                  : pc + static_cast<int64_t>(inst.imm);
        branchTo(target, taken);
        info.isCondBranch = inst.bo != isa::BO_ALWAYS;
        break;
      }
      case Op::BCLR: {
        bool taken = evalBranchCond(inst.bo, inst.bi, state_, state_.ctr);
        uint64_t target = state_.lr & ~3ULL;
        if (inst.lk)
            state_.lr = pc + 4;
        branchTo(target, taken);
        info.isCondBranch = inst.bo != isa::BO_ALWAYS;
        break;
      }
      case Op::BCCTR: {
        bool taken = evalBranchCond(inst.bo, inst.bi, state_, state_.ctr);
        uint64_t target = state_.ctr & ~3ULL;
        if (inst.lk)
            state_.lr = pc + 4;
        branchTo(target, taken);
        info.isCondBranch = inst.bo != isa::BO_ALWAYS;
        break;
      }

      case Op::CRAND:
        state_.setCrBit(inst.rt,
                        state_.crBit(inst.ra) && state_.crBit(inst.rb));
        break;
      case Op::CROR:
        state_.setCrBit(inst.rt,
                        state_.crBit(inst.ra) || state_.crBit(inst.rb));
        break;
      case Op::CRXOR:
        state_.setCrBit(inst.rt,
                        state_.crBit(inst.ra) != state_.crBit(inst.rb));
        break;
      case Op::CRNOR:
        state_.setCrBit(inst.rt,
                        !(state_.crBit(inst.ra) || state_.crBit(inst.rb)));
        break;

      case Op::MTSPR:
        if (inst.spr == isa::SPR_LR)
            state_.lr = g[inst.rt];
        else if (inst.spr == isa::SPR_CTR)
            state_.ctr = g[inst.rt];
        else
            panic("mtspr: unsupported SPR %u", inst.spr);
        break;
      case Op::MFSPR:
        if (inst.spr == isa::SPR_LR)
            g[inst.rt] = state_.lr;
        else if (inst.spr == isa::SPR_CTR)
            g[inst.rt] = state_.ctr;
        else
            panic("mfspr: unsupported SPR %u", inst.spr);
        break;
      case Op::MFCR:
        g[inst.rt] = state_.cr;
        break;

      case Op::SC:
        execSyscall(info);
        break;

      default:
        panic("unimplemented opcode %u at pc 0x%llx",
              static_cast<unsigned>(inst.op),
              static_cast<unsigned long long>(pc));
    }

    info.nextPc = nextPc;
    state_.pc = nextPc;
    return info;
}

} // namespace bp5::sim
