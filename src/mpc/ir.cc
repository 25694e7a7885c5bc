#include "mpc/ir.h"

#include <sstream>

#include "support/logging.h"

namespace bp5::mpc {

Cond
negate(Cond c)
{
    switch (c) {
      case Cond::LT: return Cond::GE;
      case Cond::LE: return Cond::GT;
      case Cond::GT: return Cond::LE;
      case Cond::GE: return Cond::LT;
      case Cond::EQ: return Cond::NE;
      case Cond::NE: return Cond::EQ;
    }
    panic("bad cond");
}

namespace {

const char *
condName(Cond c)
{
    switch (c) {
      case Cond::LT: return "lt";
      case Cond::LE: return "le";
      case Cond::GT: return "gt";
      case Cond::GE: return "ge";
      case Cond::EQ: return "eq";
      case Cond::NE: return "ne";
    }
    return "?";
}

const char *
opName(IrOp op)
{
    switch (op) {
      case IrOp::Const: return "const";
      case IrOp::Add: return "add";
      case IrOp::Sub: return "sub";
      case IrOp::Mul: return "mul";
      case IrOp::Div: return "div";
      case IrOp::And: return "and";
      case IrOp::Or: return "or";
      case IrOp::Xor: return "xor";
      case IrOp::Shl: return "shl";
      case IrOp::Shr: return "shr";
      case IrOp::Sar: return "sar";
      case IrOp::AddI: return "addi";
      case IrOp::MulI: return "muli";
      case IrOp::AndI: return "andi";
      case IrOp::OrI: return "ori";
      case IrOp::ShlI: return "shli";
      case IrOp::ShrI: return "shri";
      case IrOp::SraI: return "srai";
      case IrOp::Load: return "load";
      case IrOp::Store: return "store";
      case IrOp::Select: return "select";
      case IrOp::Max: return "max";
      case IrOp::Min: return "min";
      case IrOp::Br: return "br";
      case IrOp::Jump: return "jump";
      case IrOp::Ret: return "ret";
    }
    return "?";
}

} // namespace

int
Function::addBlock(const std::string &bname)
{
    Block b;
    b.id = static_cast<int>(blocks.size());
    b.name = bname;
    blocks.push_back(std::move(b));
    return blocks.back().id;
}

std::vector<int>
Function::successors(int blk) const
{
    const Block &b = block(blk);
    if (b.insts.empty())
        return {};
    const IrInst &t = b.insts.back();
    switch (t.op) {
      case IrOp::Br:
        return {t.tblk, t.fblk};
      case IrOp::Jump:
        return {t.tblk};
      default:
        return {};
    }
}

std::vector<int>
Function::predecessors(int blk) const
{
    std::vector<int> preds;
    for (const Block &b : blocks) {
        for (int s : successors(b.id)) {
            if (s == blk) {
                preds.push_back(b.id);
                break;
            }
        }
    }
    return preds;
}

std::string
Function::dump() const
{
    std::ostringstream os;
    os << "function " << name << " (args=" << numArgs << ")\n";
    for (const Block &b : blocks) {
        os << "  " << b.name << " (b" << b.id << "):\n";
        for (const IrInst &i : b.insts) {
            os << "    " << opName(i.op);
            switch (i.op) {
              case IrOp::Const:
                os << " v" << i.dst << ", " << i.imm;
                break;
              case IrOp::AddI: case IrOp::MulI: case IrOp::AndI:
              case IrOp::OrI: case IrOp::ShlI: case IrOp::ShrI:
              case IrOp::SraI:
                os << " v" << i.dst << ", v" << i.a << ", " << i.imm;
                break;
              case IrOp::Load:
                os << " v" << i.dst << ", [v" << i.a;
                if (i.b != kNoReg)
                    os << " + v" << i.b;
                os << " + " << i.imm << "] size=" << unsigned(i.size)
                   << (i.safe ? " safe" : "");
                break;
              case IrOp::Store:
                os << " [v" << i.a;
                if (i.b != kNoReg)
                    os << " + v" << i.b;
                os << " + " << i.imm << "], v" << i.x
                   << " size=" << unsigned(i.size);
                break;
              case IrOp::Select:
                os << " v" << i.dst << ", (v" << i.a << " "
                   << condName(i.cond) << " v" << i.b << ") ? v" << i.x
                   << " : v" << i.y;
                break;
              case IrOp::Br:
                os << " (v" << i.a << " " << condName(i.cond) << " v"
                   << i.b << ") b" << i.tblk << " else b" << i.fblk;
                break;
              case IrOp::Jump:
                os << " b" << i.tblk;
                break;
              case IrOp::Ret:
                if (i.a != kNoReg)
                    os << " v" << i.a;
                break;
              default:
                os << " v" << i.dst << ", v" << i.a << ", v" << i.b;
                break;
            }
            os << "\n";
        }
    }
    return os.str();
}

void
Function::verify() const
{
    BP5_ASSERT(!blocks.empty(), "%s: no blocks", name.c_str());
    auto checkReg = [&](VReg r, const char *what) {
        BP5_ASSERT(r >= 0 && r < nextReg, "%s: bad %s register v%d",
                   name.c_str(), what, r);
    };
    auto checkBlk = [&](int b) {
        BP5_ASSERT(b >= 0 && b < static_cast<int>(blocks.size()),
                   "%s: bad block id %d", name.c_str(), b);
    };
    for (const Block &b : blocks) {
        BP5_ASSERT(b.terminated(), "%s: block %s not terminated",
                   name.c_str(), b.name.c_str());
        for (size_t k = 0; k < b.insts.size(); ++k) {
            const IrInst &i = b.insts[k];
            BP5_ASSERT(i.isTerminator() == (k + 1 == b.insts.size()),
                       "%s: terminator in the middle of block %s",
                       name.c_str(), b.name.c_str());
            switch (i.op) {
              case IrOp::Const:
                checkReg(i.dst, "dst");
                break;
              case IrOp::AddI: case IrOp::MulI: case IrOp::AndI:
              case IrOp::OrI: case IrOp::ShlI: case IrOp::ShrI:
              case IrOp::SraI:
                checkReg(i.dst, "dst");
                checkReg(i.a, "src");
                break;
              case IrOp::Load:
                checkReg(i.dst, "dst");
                checkReg(i.a, "base");
                if (i.b != kNoReg)
                    checkReg(i.b, "index");
                BP5_ASSERT(i.size == 1 || i.size == 2 || i.size == 4 ||
                           i.size == 8, "bad load size");
                break;
              case IrOp::Store:
                checkReg(i.a, "base");
                checkReg(i.x, "value");
                if (i.b != kNoReg)
                    checkReg(i.b, "index");
                break;
              case IrOp::Select:
                checkReg(i.dst, "dst");
                checkReg(i.a, "a");
                checkReg(i.b, "b");
                checkReg(i.x, "x");
                checkReg(i.y, "y");
                break;
              case IrOp::Br:
                checkReg(i.a, "a");
                checkReg(i.b, "b");
                checkBlk(i.tblk);
                checkBlk(i.fblk);
                break;
              case IrOp::Jump:
                checkBlk(i.tblk);
                break;
              case IrOp::Ret:
                if (i.a != kNoReg)
                    checkReg(i.a, "ret");
                break;
              default:
                checkReg(i.dst, "dst");
                checkReg(i.a, "a");
                checkReg(i.b, "b");
                break;
            }
        }
    }
}

void
IrBuilder::declareArgs(unsigned n)
{
    BP5_ASSERT(fn_.nextReg == 0, "declareArgs after registers created");
    fn_.numArgs = n;
    fn_.nextReg = static_cast<VReg>(n);
}

void
IrBuilder::append(IrInst inst)
{
    BP5_ASSERT(cur_ >= 0, "no current block");
    Block &b = fn_.block(cur_);
    BP5_ASSERT(!b.terminated(), "appending to terminated block %s",
               b.name.c_str());
    b.insts.push_back(inst);
}

VReg
IrBuilder::iconst(int64_t v)
{
    IrInst i;
    i.op = IrOp::Const;
    i.dst = fn_.newReg();
    i.imm = v;
    append(i);
    return i.dst;
}

VReg
IrBuilder::bin(IrOp op, VReg a, VReg b)
{
    IrInst i;
    i.op = op;
    i.dst = fn_.newReg();
    i.a = a;
    i.b = b;
    append(i);
    return i.dst;
}

VReg
IrBuilder::immOp(IrOp op, VReg a, int64_t imm)
{
    IrInst i;
    i.op = op;
    i.dst = fn_.newReg();
    i.a = a;
    i.imm = imm;
    append(i);
    return i.dst;
}

void
IrBuilder::copyTo(VReg dst, VReg src)
{
    IrInst i;
    i.op = IrOp::OrI;
    i.dst = dst;
    i.a = src;
    i.imm = 0;
    append(i);
}

VReg
IrBuilder::load(VReg base, int64_t disp, unsigned size, bool isSigned,
                bool safe)
{
    IrInst i;
    i.op = IrOp::Load;
    i.dst = fn_.newReg();
    i.a = base;
    i.imm = disp;
    i.size = static_cast<uint8_t>(size);
    i.isSigned = isSigned;
    i.safe = safe;
    append(i);
    return i.dst;
}

VReg
IrBuilder::loadx(VReg base, VReg index, unsigned size, bool isSigned,
                 bool safe)
{
    IrInst i;
    i.op = IrOp::Load;
    i.dst = fn_.newReg();
    i.a = base;
    i.b = index;
    i.size = static_cast<uint8_t>(size);
    i.isSigned = isSigned;
    i.safe = safe;
    append(i);
    return i.dst;
}

void
IrBuilder::store(VReg val, VReg base, int64_t disp, unsigned size)
{
    IrInst i;
    i.op = IrOp::Store;
    i.a = base;
    i.x = val;
    i.imm = disp;
    i.size = static_cast<uint8_t>(size);
    append(i);
}

void
IrBuilder::storex(VReg val, VReg base, VReg index, unsigned size)
{
    IrInst i;
    i.op = IrOp::Store;
    i.a = base;
    i.b = index;
    i.x = val;
    i.size = static_cast<uint8_t>(size);
    append(i);
}

VReg
IrBuilder::select(Cond c, VReg a, VReg b, VReg x, VReg y)
{
    IrInst i;
    i.op = IrOp::Select;
    i.dst = fn_.newReg();
    i.cond = c;
    i.a = a;
    i.b = b;
    i.x = x;
    i.y = y;
    append(i);
    return i.dst;
}

VReg
IrBuilder::max(VReg a, VReg b)
{
    return bin(IrOp::Max, a, b);
}

VReg
IrBuilder::min(VReg a, VReg b)
{
    return bin(IrOp::Min, a, b);
}

void
IrBuilder::maxInto(VReg acc, VReg b)
{
    IrInst i;
    i.op = IrOp::Max;
    i.dst = acc;
    i.a = acc;
    i.b = b;
    append(i);
}

void
IrBuilder::minInto(VReg acc, VReg b)
{
    IrInst i;
    i.op = IrOp::Min;
    i.dst = acc;
    i.a = acc;
    i.b = b;
    append(i);
}

void
IrBuilder::addInto(VReg acc, VReg b)
{
    IrInst i;
    i.op = IrOp::Add;
    i.dst = acc;
    i.a = acc;
    i.b = b;
    append(i);
}

void
IrBuilder::subInto(VReg acc, VReg b)
{
    IrInst i;
    i.op = IrOp::Sub;
    i.dst = acc;
    i.a = acc;
    i.b = b;
    append(i);
}

void
IrBuilder::addiInto(VReg acc, int64_t imm)
{
    IrInst i;
    i.op = IrOp::AddI;
    i.dst = acc;
    i.a = acc;
    i.imm = imm;
    append(i);
}

void
IrBuilder::br(Cond c, VReg a, VReg b, int tblk, int fblk)
{
    IrInst i;
    i.op = IrOp::Br;
    i.cond = c;
    i.a = a;
    i.b = b;
    i.tblk = tblk;
    i.fblk = fblk;
    append(i);
}

void
IrBuilder::jump(int blk)
{
    IrInst i;
    i.op = IrOp::Jump;
    i.tblk = blk;
    append(i);
}

void
IrBuilder::ret(VReg v)
{
    IrInst i;
    i.op = IrOp::Ret;
    i.a = v;
    append(i);
}

} // namespace bp5::mpc
