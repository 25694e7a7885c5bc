#include "analysis/absint.h"

#include <algorithm>
#include <deque>

#include "support/logging.h"

namespace bp5::analysis {

using isa::Inst;
using isa::Op;

const char *
provName(Prov p)
{
    switch (p) {
    case Prov::Bottom: return "bottom";
    case Prov::Const: return "const";
    case Prov::Num: return "num";
    case Prov::Ptr: return "ptr";
    }
    return "?";
}

std::string
AbsVal::str() const
{
    return std::string(provName(prov)) + " " + range.str();
}

unsigned
memAccessSize(Op op)
{
    switch (op) {
    case Op::LBZ: case Op::LBZX: case Op::STB: case Op::STBX:
        return 1;
    case Op::LHZ: case Op::LHA: case Op::LHZX: case Op::LHAX:
    case Op::STH: case Op::STHX:
        return 2;
    case Op::LWZ: case Op::LWA: case Op::LWZX: case Op::LWAX:
    case Op::STW: case Op::STWX:
        return 4;
    case Op::LD: case Op::LDX: case Op::STD: case Op::STDX:
        return 8;
    default:
        return 0;
    }
}

namespace {

using State = std::array<AbsVal, 32>;

/** Value of GPR @p r, honoring the RA==0-means-zero convention when
 *  @p ra_base is set. */
AbsVal
gprVal(const State &st, unsigned r, bool ra_base)
{
    if (ra_base && r == 0)
        return AbsVal::constant(0);
    return st[r];
}

/** Provenance of a computed (non-copy) combination of inputs.  A
 *  pointer that is multiplied / divided / masked stops being a usable
 *  address, so Ptr demotes to Num through those ops. */
Prov
combineProv(Prov a, Prov b, bool keeps_ptr)
{
    Prov p = std::max(a, b);
    if (!keeps_ptr && p == Prov::Ptr)
        p = Prov::Num;
    return p;
}

/** Abstract transfer of one instruction over @p st. */
void
transfer(const Inst &i, State &st)
{
    const isa::OpInfo &info = i.info();
    auto A = [&] { return gprVal(st, i.ra, isa::raIsBase(i.op)); };
    auto B = [&] { return st[i.rb]; };
    auto set = [&](AbsVal v) { st[i.rt] = v; };

    switch (i.op) {
    case Op::ADDI:
        set({A().prov == Prov::Bottom ? Prov::Bottom : A().prov,
             A().range.addConst(i.imm)});
        break;
    case Op::ADDIS:
        set({A().prov, A().range.addConst(int64_t{i.imm} << 16)});
        break;
    case Op::ORI:
        if (i.imm == 0) {
            set(st[i.ra]); // mr
            break;
        }
        [[fallthrough]];
    case Op::ORIS:
    case Op::XORI: {
        AbsVal a = st[i.ra];
        Prov p = a.prov == Prov::Ptr ? Prov::Num : a.prov;
        if (a.range.isPoint()) {
            uint64_t v = static_cast<uint64_t>(a.range.lo);
            uint64_t u = static_cast<uint64_t>(
                static_cast<uint32_t>(i.imm) & 0xffffu);
            if (i.op == Op::ORIS)
                v |= u << 16;
            else if (i.op == Op::XORI)
                v ^= u;
            else
                v |= u;
            set({p, Interval::point(static_cast<int64_t>(v))});
        } else {
            set({p, Interval::top()});
        }
        break;
    }
    case Op::ANDI_RC: {
        AbsVal a = st[i.ra];
        int64_t mask = static_cast<uint16_t>(i.imm);
        Prov p = a.prov == Prov::Bottom ? Prov::Bottom
                 : a.prov == Prov::Const && a.range.isPoint() ? Prov::Const
                                                              : Prov::Num;
        if (a.range.isPoint())
            set({p, Interval::point(a.range.lo & mask)});
        else
            set({p, Interval::range(0, mask)});
        break;
    }
    case Op::MULLI:
        set({combineProv(st[i.ra].prov, Prov::Const, false),
             st[i.ra].range.mul(Interval::point(i.imm))});
        break;
    case Op::ADD:
        set({combineProv(A().prov, B().prov, true), A().range.add(B().range)});
        break;
    case Op::SUBF: // rt = rb - ra
        set({combineProv(A().prov, B().prov, true), B().range.sub(A().range)});
        break;
    case Op::NEG:
        set({combineProv(st[i.ra].prov, Prov::Const, false),
             st[i.ra].range.neg()});
        break;
    case Op::MULLD:
        set({combineProv(A().prov, B().prov, false),
             A().range.mul(B().range)});
        break;
    case Op::DIVD:
    case Op::DIVDU:
        set({combineProv(A().prov, B().prov, false), Interval::top()});
        break;
    case Op::AND:
    case Op::ANDC:
    case Op::OR:
    case Op::ORC:
    case Op::XOR:
    case Op::NOR:
    case Op::NAND:
    case Op::EQV:
        if (i.op == Op::OR && i.ra == i.rb) {
            set(st[i.ra]); // canonical register move
            break;
        }
        set({combineProv(st[i.ra].prov, st[i.rb].prov, false),
             Interval::top()});
        break;
    case Op::SLDI:
        set({combineProv(st[i.ra].prov, Prov::Const, false),
             st[i.ra].range.shlConst(i.rb)});
        break;
    case Op::SRDI:
    case Op::SRADI:
    case Op::SLD:
    case Op::SRD:
    case Op::SRAD:
        set({combineProv(st[i.ra].prov,
                         info.readsRB ? st[i.rb].prov : Prov::Const, false),
             Interval::top()});
        break;
    case Op::EXTSB:
        set({Prov::Num, Interval::range(-128, 127)});
        break;
    case Op::EXTSH:
        set({Prov::Num, Interval::range(-32768, 32767)});
        break;
    case Op::EXTSW:
        set({Prov::Num, Interval::range(INT32_MIN, INT32_MAX)});
        break;
    case Op::CNTLZD:
        set({Prov::Num, Interval::range(0, 64)});
        break;
    case Op::ISEL:
        set(gprVal(st, i.ra, true).joined(st[i.rb]));
        break;
    case Op::MAXD:
        set({combineProv(st[i.ra].prov, st[i.rb].prov, true),
             st[i.ra].range.maxWith(st[i.rb].range)});
        break;
    case Op::MIND:
        set({combineProv(st[i.ra].prov, st[i.rb].prov, true),
             st[i.ra].range.minWith(st[i.rb].range)});
        break;
    case Op::LBZ: case Op::LBZX:
        set(AbsVal::num(Interval::range(0, 255)));
        break;
    case Op::LHZ: case Op::LHZX:
        set(AbsVal::num(Interval::range(0, 65535)));
        break;
    case Op::LHA: case Op::LHAX:
        set(AbsVal::num(Interval::range(-32768, 32767)));
        break;
    case Op::LWZ: case Op::LWZX:
        set(AbsVal::num(Interval::range(0, 0xffffffffLL)));
        break;
    case Op::LWA: case Op::LWAX:
        set(AbsVal::num(Interval::range(INT32_MIN, INT32_MAX)));
        break;
    case Op::LD: case Op::LDX:
        set(AbsVal::ptrTop()); // a 64-bit slot can hold a pointer
        break;
    case Op::MFSPR:
        set(AbsVal::ptrTop()); // LR holds a return address
        break;
    case Op::MFCR:
        set(AbsVal::num(Interval::range(0, 0xffffffffLL)));
        break;
    case Op::SC:
        // Simulator services may return through r3 (e.g. allocation).
        st[3] = AbsVal::ptrTop();
        break;
    default:
        if (info.writesRT)
            set(AbsVal::ptrTop()); // unmodelled op: suppress diagnostics
        break;
    }
}

/** Abstract effective address of a load/store in @p st. */
AbsVal
effectiveAddress(const Inst &i, const State &st)
{
    AbsVal base = gprVal(st, i.ra, isa::raIsBase(i.op));
    if (i.info().readsRB) { // X-form indexed
        return {base.prov == Prov::Bottom || st[i.rb].prov == Prov::Bottom
                    ? Prov::Bottom
                    : std::max(base.prov, st[i.rb].prov),
                base.range.add(st[i.rb].range)};
    }
    AbsVal r = base;
    r.range = r.range.addConst(i.imm);
    return r;
}

constexpr uint64_t kNullPage = 0x1000;

MemClass
classify(const AbsVal &ea, unsigned size,
         const std::vector<MemRegion> &regions)
{
    if (ea.prov == Prov::Bottom)
        return MemClass::Unknown; // covered by undefined-read errors
    if (!ea.range.isBottom() && ea.range.lo >= 0) {
        uint64_t lo = static_cast<uint64_t>(ea.range.lo);
        uint64_t hi_incl = static_cast<uint64_t>(
            Interval::sat(static_cast<__int128>(ea.range.hi) + size - 1));
        for (const MemRegion &r : regions) {
            if (r.containsRange(lo, hi_incl))
                return MemClass::InBounds;
        }
        // The whole range inside the never-mapped null page is a
        // definite bug — but only when the address was built purely
        // from immediates, so the interval is exact.
        if (ea.prov == Prov::Const && hi_incl < kNullPage &&
            ea.range.hi >= ea.range.lo)
            return MemClass::OutOfBounds;
    }
    if (ea.prov == Prov::Ptr)
        return MemClass::RegionRel;
    return MemClass::Unknown;
}

} // namespace

ValueAnalysis
analyzeValues(const Cfg &cfg, RegSet entry_defined,
              const std::vector<MemRegion> &regions)
{
    ValueAnalysis va;
    va.in.assign(cfg.blocks.size(), State{});
    if (cfg.entryBlock < 0)
        return va;

    // Entry state: ABI-defined registers may be pointers (r1 stack,
    // r3-r10 arguments, anything the caller set up); r0 is only a
    // scratch/zero operand, so it enters as numeric data.
    State entry{};
    for (unsigned r = 0; r < 32; ++r) {
        if (entry_defined & regBit(r))
            entry[r] = r == 0 ? AbsVal::numTop() : AbsVal::ptrTop();
    }
    va.in[static_cast<size_t>(cfg.entryBlock)] = entry;

    constexpr unsigned kWidenAfter = 4;
    std::vector<unsigned> visits(cfg.blocks.size(), 0);
    std::vector<bool> reached(cfg.blocks.size(), false);
    reached[static_cast<size_t>(cfg.entryBlock)] = true;

    std::deque<int> work{cfg.entryBlock};
    std::vector<bool> queued(cfg.blocks.size(), false);
    queued[static_cast<size_t>(cfg.entryBlock)] = true;
    while (!work.empty()) {
        int b = work.front();
        work.pop_front();
        queued[static_cast<size_t>(b)] = false;
        ++visits[static_cast<size_t>(b)];

        State st = va.in[static_cast<size_t>(b)];
        for (const CfgInst &ci : cfg.blocks[static_cast<size_t>(b)].insts)
            transfer(ci.inst, st);

        for (int s : cfg.blocks[static_cast<size_t>(b)].succs) {
            State &dst = va.in[static_cast<size_t>(s)];
            bool changed = false;
            for (unsigned r = 0; r < 32; ++r) {
                AbsVal j = reached[static_cast<size_t>(s)]
                               ? dst[r].joined(st[r])
                               : st[r];
                if (visits[static_cast<size_t>(s)] >= kWidenAfter)
                    j = j.widenedFrom(dst[r]);
                if (!(j == dst[r])) {
                    dst[r] = j;
                    changed = true;
                }
            }
            if (!reached[static_cast<size_t>(s)]) {
                reached[static_cast<size_t>(s)] = true;
                changed = true;
            }
            if (changed && !queued[static_cast<size_t>(s)]) {
                queued[static_cast<size_t>(s)] = true;
                work.push_back(s);
            }
        }
    }

    // Classification pass: replay each block from its fixpoint entry
    // state and record every load/store.
    for (const BasicBlock &blk : cfg.blocks) {
        State st = va.in[static_cast<size_t>(blk.id)];
        for (const CfgInst &ci : blk.insts) {
            unsigned size = memAccessSize(ci.inst.op);
            if (size) {
                MemAccess a;
                a.pc = ci.pc;
                a.isStore = ci.inst.info().isStore;
                a.size = size;
                a.ea = effectiveAddress(ci.inst, st);
                a.cls = classify(a.ea, size, regions);
                a.misaligned = a.ea.prov == Prov::Const &&
                               a.ea.range.isPoint() &&
                               (static_cast<uint64_t>(a.ea.range.lo) %
                                size) != 0;
                va.accesses.push_back(std::move(a));
            }
            transfer(ci.inst, st);
        }
    }
    std::sort(va.accesses.begin(), va.accesses.end(),
              [](const MemAccess &a, const MemAccess &b) {
                  return a.pc < b.pc;
              });
    return va;
}

} // namespace bp5::analysis
