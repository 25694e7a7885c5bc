#include "ir_interp.h"

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::mpc {

namespace {

bool
evalCond(Cond c, int64_t a, int64_t b)
{
    switch (c) {
      case Cond::LT: return a < b;
      case Cond::LE: return a <= b;
      case Cond::GT: return a > b;
      case Cond::GE: return a >= b;
      case Cond::EQ: return a == b;
      case Cond::NE: return a != b;
    }
    panic("bad cond");
}

} // namespace

InterpResult
interpret(const Function &fn, const std::vector<int64_t> &args,
          sim::Memory &mem, uint64_t max_steps)
{
    fn.verify();
    BP5_ASSERT(args.size() == fn.numArgs, "argument count mismatch");

    std::vector<int64_t> reg(static_cast<size_t>(fn.nextReg) + 1, 0);
    for (size_t i = 0; i < args.size(); ++i)
        reg[i] = args[i];

    InterpResult res;
    int blk = 0;
    size_t ip = 0;

    auto addr = [&](const IrInst &i) {
        uint64_t a = static_cast<uint64_t>(reg[size_t(i.a)]);
        if (i.b != kNoReg)
            a += static_cast<uint64_t>(reg[size_t(i.b)]);
        return a + static_cast<uint64_t>(i.imm);
    };

    while (res.steps < max_steps) {
        const Block &b = fn.block(blk);
        const IrInst &i = b.insts[ip];
        ++res.steps;
        ++ip;

        auto &d = reg[size_t(i.dst >= 0 ? i.dst : 0)];
        int64_t av = i.a >= 0 ? reg[size_t(i.a)] : 0;
        int64_t bv = i.b >= 0 ? reg[size_t(i.b)] : 0;

        switch (i.op) {
          case IrOp::Const: d = i.imm; break;
          case IrOp::Add:
            d = static_cast<int64_t>(static_cast<uint64_t>(av) +
                                     static_cast<uint64_t>(bv));
            break;
          case IrOp::Sub:
            d = static_cast<int64_t>(static_cast<uint64_t>(av) -
                                     static_cast<uint64_t>(bv));
            break;
          case IrOp::Mul:
            d = static_cast<int64_t>(static_cast<uint64_t>(av) *
                                     static_cast<uint64_t>(bv));
            break;
          case IrOp::Div:
            // Matches the simulator's defined-zero semantics.
            d = (bv == 0 || (av == INT64_MIN && bv == -1)) ? 0 : av / bv;
            break;
          case IrOp::And: d = av & bv; break;
          case IrOp::Or: d = av | bv; break;
          case IrOp::Xor: d = av ^ bv; break;
          case IrOp::Shl: {
            unsigned sh = static_cast<unsigned>(bv) & 127;
            d = sh >= 64 ? 0
                         : static_cast<int64_t>(
                               static_cast<uint64_t>(av) << sh);
            break;
          }
          case IrOp::Shr: {
            unsigned sh = static_cast<unsigned>(bv) & 127;
            d = sh >= 64 ? 0
                         : static_cast<int64_t>(
                               static_cast<uint64_t>(av) >> sh);
            break;
          }
          case IrOp::Sar: {
            unsigned sh = static_cast<unsigned>(bv) & 127;
            d = sh >= 64 ? (av < 0 ? -1 : 0) : (av >> sh);
            break;
          }
          case IrOp::AddI:
            d = static_cast<int64_t>(static_cast<uint64_t>(av) +
                                     static_cast<uint64_t>(i.imm));
            break;
          case IrOp::MulI:
            d = static_cast<int64_t>(static_cast<uint64_t>(av) *
                                     static_cast<uint64_t>(i.imm));
            break;
          case IrOp::AndI: d = av & i.imm; break;
          case IrOp::OrI: d = av | i.imm; break;
          case IrOp::ShlI:
            d = static_cast<int64_t>(static_cast<uint64_t>(av)
                                     << (i.imm & 63));
            break;
          case IrOp::ShrI:
            d = static_cast<int64_t>(static_cast<uint64_t>(av) >>
                                     (i.imm & 63));
            break;
          case IrOp::SraI: d = av >> (i.imm & 63); break;
          case IrOp::Load: {
            uint64_t a = addr(i);
            uint64_t v = 0;
            switch (i.size) {
              case 1: v = mem.readU8(a); break;
              case 2: v = mem.readU16(a); break;
              case 4: v = mem.readU32(a); break;
              case 8: v = mem.readU64(a); break;
            }
            d = i.isSigned && i.size < 8
                    ? sext(v, unsigned(i.size) * 8)
                    : static_cast<int64_t>(v);
            break;
          }
          case IrOp::Store: {
            uint64_t a = addr(i);
            uint64_t v = static_cast<uint64_t>(reg[size_t(i.x)]);
            switch (i.size) {
              case 1: mem.writeU8(a, uint8_t(v)); break;
              case 2: mem.writeU16(a, uint16_t(v)); break;
              case 4: mem.writeU32(a, uint32_t(v)); break;
              case 8: mem.writeU64(a, v); break;
            }
            break;
          }
          case IrOp::Select:
            d = evalCond(i.cond, av, bv) ? reg[size_t(i.x)]
                                         : reg[size_t(i.y)];
            break;
          case IrOp::Max: d = av > bv ? av : bv; break;
          case IrOp::Min: d = av < bv ? av : bv; break;
          case IrOp::Br:
            blk = evalCond(i.cond, av, bv) ? i.tblk : i.fblk;
            ip = 0;
            break;
          case IrOp::Jump:
            blk = i.tblk;
            ip = 0;
            break;
          case IrOp::Ret:
            res.value = i.a >= 0 ? av : 0;
            res.finished = true;
            return res;
        }
    }
    return res; // step limit hit: finished == false
}

} // namespace bp5::mpc
