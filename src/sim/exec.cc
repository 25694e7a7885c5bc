#include "sim/exec.h"

#include <bit>
#include <cstring>
#include <type_traits>

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

using isa::Op;

namespace {

/** Evaluate a BO condition against @p ctr (bclr/bcctr: no decrement). */
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
// Micro-op handlers: the simulator's only copy of MiniPOWER semantics.
// Each handler fully retires one instruction: architectural update,
// branch/load/store counter bumps, and the outcome (effective address,
// branch direction and target) in the FastCtx.
// It receives the instruction's pc and returns the next one, so the
// pc stays in a register across the executor loop.
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
//
// The hit path reads or writes through Memory::residentPtr and calls
// nothing, so the handler needs no stack frame; a TLB miss or a
// page-crossing access is tail-called into the out-of-line slow path,
// which goes through Memory's block routines.

template <unsigned Size>
using UIntOf = std::conditional_t<
    Size == 1, uint8_t,
    std::conditional_t<Size == 2, uint16_t,
                       std::conditional_t<Size == 4, uint32_t, uint64_t>>>;

/** A loaded value of @p Size bytes, extended to the register width. */
template <unsigned Size, bool Sign>
uint64_t
extendLoaded(uint64_t v)
{
    if constexpr (Sign && Size < 8)
        return static_cast<uint64_t>(sext(v, Size * 8));
    return v;
}

template <unsigned Size, bool Sign>
[[gnu::noinline]] uint64_t
loadSlow(const MicroOp &mo, FastCtx &x, uint64_t pc, uint64_t ea)
{
    UIntOf<Size> v;
    x.mem.readBlock(ea, &v, Size);
    x.st.gpr[mo.inst.rt] = extendLoaded<Size, Sign>(v);
    return pc + 4;
}

template <unsigned Size>
[[gnu::noinline]] uint64_t
storeSlow(const MicroOp &mo, FastCtx &x, uint64_t pc, uint64_t ea)
{
    const UIntOf<Size> v = static_cast<UIntOf<Size>>(x.st.gpr[mo.inst.rt]);
    x.mem.writeBlock(ea, &v, Size);
    return pc + 4;
}

template <unsigned Size, bool Sign, bool Indexed>
OP_HANDLER(hLoad)
{
    const isa::Inst &i = mo.inst;
    uint64_t base = i.ra ? x.st.gpr[i.ra] : 0;
    uint64_t ea = base + (Indexed ? x.st.gpr[i.rb] : mo.imm);
    ++x.c.loads;
    x.memAddr = ea;
    if (const uint8_t *p = x.mem.residentPtr(ea, Size)) {
        UIntOf<Size> v;
        std::memcpy(&v, p, Size);
        x.st.gpr[i.rt] = extendLoaded<Size, Sign>(v);
        return pc + 4;
    }
    return loadSlow<Size, Sign>(mo, x, pc, ea);
}

template <unsigned Size, bool Indexed>
OP_HANDLER(hStore)
{
    const isa::Inst &i = mo.inst;
    uint64_t base = i.ra ? x.st.gpr[i.ra] : 0;
    uint64_t ea = base + (Indexed ? x.st.gpr[i.rb] : mo.imm);
    ++x.c.stores;
    x.memAddr = ea;
    if (uint8_t *p = x.mem.residentPtr(ea, Size)) {
        const UIntOf<Size> v = static_cast<UIntOf<Size>>(x.st.gpr[i.rt]);
        std::memcpy(p, &v, Size);
        return pc + 4;
    }
    return storeSlow<Size>(mo, x, pc, ea);
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

/** B, and BC with BO_ALWAYS: unconditional, not a condBranch. */
OP_HANDLER(hB)
{
    ++x.c.branches;
    ++x.c.takenBranches;
    x.taken = true;
    x.target = mo.imm;
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
    x.taken = taken;
    x.target = mo.imm;
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
    bool taken = evalBranchCond(i.bo, i.bi, x.st, x.st.ctr);
    uint64_t target = (ViaCtr ? x.st.ctr : x.st.lr) & ~3ULL;
    ++x.c.branches;
    if (taken)
        ++x.c.takenBranches;
    x.taken = taken;
    x.target = target;
    if (i.bo != isa::BO_ALWAYS)
        ++x.c.condBranches;
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
    // Whole words only: a trailing partial word (a .byte or .half tail)
    // has no slot, so if it is ever reached it runs through the scratch
    // slot like code outside the image.
    imageBytes_ = bytes & ~size_t(3);
    ops_.assign(bytes / 4, MicroOp());
}

void
Executor::invalidateDecodeCache()
{
    for (MicroOp &mo : ops_)
        mo.fn = nullptr;
}

const MicroOp &
Executor::buildMicroOp(MicroOp &mo, uint64_t pc) const
{
    uint32_t word = mem_.readU32(pc);
    if (!mo.inst.valid() || mo.word != word)
        decodeInto(mo, word, pc);
    bindHandler(mo, pc);
    return mo;
}

void
Executor::decodeInto(MicroOp &mo, uint32_t word, uint64_t pc)
{
    isa::Inst d = isa::decode(word);
    if (!d.valid()) {
        panic("invalid instruction 0x%08x at pc 0x%llx", word,
              static_cast<unsigned long long>(pc));
    }
    mo = MicroOp();
    mo.inst = d;
    mo.word = word;

    // Static timing facts: the timing model reads these instead of
    // re-deriving them from the instruction on every retirement.
    const isa::OpInfo &opi = d.info();
    mo.unit = opi.unit;
    mo.latency = opi.latency;
    // Divides block their unit; multiplies hold it for 2 cycles.
    mo.occupancy = d.op == Op::DIVD || d.op == Op::DIVDU     ? opi.latency
                   : d.op == Op::MULLD || d.op == Op::MULLI ? 2
                                                            : 1;
    unsigned deps[isa::kMaxDeps];
    mo.nsrc = static_cast<uint8_t>(isa::srcDeps(d, deps));
    for (unsigned i = 0; i < mo.nsrc; ++i)
        mo.src[i] = static_cast<uint8_t>(deps[i]);
    mo.ndst = static_cast<uint8_t>(isa::dstDeps(d, deps));
    for (unsigned i = 0; i < mo.ndst; ++i)
        mo.dst[i] = static_cast<uint8_t>(deps[i]);
    mo.isBranch = opi.isBranch;
    mo.isCondBranch = opi.isCondBranch && d.bo != isa::BO_ALWAYS;
    mo.isLoad = opi.isLoad;
    mo.isStore = opi.isStore;
}

void
Executor::bindHandler(MicroOp &mo, uint64_t pc)
{
    const isa::Inst &d = mo.inst;
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
              case isa::BO_ALWAYS: fn = hB; break;
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

namespace {

/** The loop's hook for runs that only execute. */
struct NoHook
{
    void operator()(const MicroOp &, uint64_t, const FastCtx &) const {}
};

} // namespace

Executor::FastResult
Executor::runFast(uint64_t max, Counters &c)
{
    // Added once per burst: a memory increment per instruction is a
    // measurable share of this few-ns loop.
    FastResult res = runHooked(max, c, NoHook{});
    c.instructions += res.executed;
    return res;
}

} // namespace bp5::sim
