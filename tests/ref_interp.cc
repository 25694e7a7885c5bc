#include "ref_interp.h"

#include <bit>

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::testref {

using isa::Op;
using sim::CoreState;

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

} // namespace

RefResult
RefInterp::run(uint64_t max)
{
    RefResult r;
    for (uint64_t n = 0; n < max && !r.halted; ++n)
        step(r);
    return r;
}

void
RefInterp::syscall(RefResult &r)
{
    uint64_t fn = state_.gpr[0];
    uint64_t arg = state_.gpr[3];
    switch (fn) {
      case isa::SYS_EXIT:
        r.halted = true;
        r.exitCode = static_cast<int64_t>(arg);
        break;
      case isa::SYS_PUTC:
        r.console += static_cast<char>(arg & 0xff);
        break;
      case isa::SYS_PUTINT:
        r.console += strprintf("%lld",
                               static_cast<long long>(
                                   static_cast<int64_t>(arg)));
        break;
      case isa::SYS_PUTHEX:
        r.console += strprintf("0x%llx",
                               static_cast<unsigned long long>(arg));
        break;
      default:
        panic("unknown syscall %llu",
              static_cast<unsigned long long>(fn));
    }
}

void
RefInterp::step(RefResult &r)
{
    const uint64_t pc = state_.pc;
    uint32_t word = mem_.readU32(pc);
    const isa::Inst inst = isa::decode(word);
    if (!inst.valid()) {
        panic("invalid instruction 0x%08x at pc 0x%llx", word,
              static_cast<unsigned long long>(pc));
    }

    sim::Counters &c = r.counters;
    ++c.instructions;
    ++c.opCount[size_t(inst.op)];

    auto &g = state_.gpr;
    uint64_t nextPc = pc + 4;

    // Base value for D/X-form address and addi computations.
    auto baseRa = [&]() -> uint64_t {
        return inst.ra == 0 ? 0 : g[inst.ra];
    };
    auto load = [&](unsigned size, bool sign, uint64_t ea) {
        ++c.loads;
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
        ++c.stores;
        uint64_t v = g[inst.rt];
        switch (size) {
          case 1: mem_.writeU8(ea, static_cast<uint8_t>(v)); break;
          case 2: mem_.writeU16(ea, static_cast<uint16_t>(v)); break;
          case 4: mem_.writeU32(ea, static_cast<uint32_t>(v)); break;
          case 8: mem_.writeU64(ea, v); break;
        }
    };
    auto branchTo = [&](uint64_t target, bool taken) {
        ++c.branches;
        if (taken) {
            ++c.takenBranches;
            nextPc = target;
        }
    };
    auto condBranch = [&](unsigned bo) {
        if (bo != isa::BO_ALWAYS)
            ++c.condBranches;
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
        condBranch(inst.bo);
        break;
      }
      case Op::BCLR: {
        bool taken = evalBranchCond(inst.bo, inst.bi, state_, state_.ctr);
        uint64_t target = state_.lr & ~3ULL;
        if (inst.lk)
            state_.lr = pc + 4;
        branchTo(target, taken);
        condBranch(inst.bo);
        break;
      }
      case Op::BCCTR: {
        bool taken = evalBranchCond(inst.bo, inst.bi, state_, state_.ctr);
        uint64_t target = state_.ctr & ~3ULL;
        if (inst.lk)
            state_.lr = pc + 4;
        branchTo(target, taken);
        condBranch(inst.bo);
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
        syscall(r);
        break;

      default:
        panic("unimplemented opcode %u at pc 0x%llx",
              static_cast<unsigned>(inst.op),
              static_cast<unsigned long long>(pc));
    }

    state_.pc = nextPc;
}

} // namespace bp5::testref
