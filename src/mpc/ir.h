/**
 * @file
 * Intermediate representation of the mini-POWER compiler (mpc).
 *
 * The IR is a conventional CFG of basic blocks over mutable virtual
 * registers (not SSA).  Branches are fused compare-and-branch ops, and
 * the predication primitives the paper studies are first-class:
 * Select (lowered to cmp+isel), and Max/Min (lowered to the
 * hypothetical single-cycle max/min instructions when enabled).
 *
 * Loads carry a `safe` bit meaning "may be executed speculatively":
 * the if-conversion pass may only hoist a load past a branch when the
 * bit is set.  Kernel builders set it where a compiler could prove
 * safety (see paper section IV-B for the cases gcc cannot prove).
 */

#ifndef BIOPERF5_MPC_IR_H
#define BIOPERF5_MPC_IR_H

#include <cstdint>
#include <string>
#include <vector>

namespace bp5::mpc {

/** Virtual register id. */
using VReg = int32_t;
constexpr VReg kNoReg = -1;

/** Comparison conditions (signed). */
enum class Cond : uint8_t { LT, LE, GT, GE, EQ, NE };

/** Negate a condition. */
Cond negate(Cond c);

/** IR operations. */
enum class IrOp : uint8_t
{
    Const,  ///< dst = imm
    Add, Sub, Mul, Div,        ///< dst = a op b
    And, Or, Xor,
    Shl, Shr, Sar,             ///< shifts by register amount
    AddI, MulI, AndI, OrI,     ///< dst = a op imm
    ShlI, ShrI, SraI,          ///< shifts by constant amount
    Load,   ///< dst = mem[base (+ index) + disp]
    Store,  ///< mem[base (+ index) + disp] = a
    Select, ///< dst = (a cond b) ? x : y
    Max,    ///< dst = max(a, b) (signed)
    Min,    ///< dst = min(a, b) (signed)
    Br,     ///< if (a cond b) goto tblk else fblk
    Jump,   ///< goto tblk
    Ret,    ///< return a (or nothing)
};

/** One IR instruction. */
struct IrInst
{
    IrOp op;
    VReg dst = kNoReg;
    VReg a = kNoReg;
    VReg b = kNoReg;
    VReg x = kNoReg;       ///< Select: value if condition true
    VReg y = kNoReg;       ///< Select: value if condition false
    int64_t imm = 0;       ///< Const / *I ops / Load/Store displacement
    Cond cond = Cond::LT;  ///< Br / Select
    uint8_t size = 8;      ///< Load/Store access size (1/2/4/8)
    bool isSigned = true;  ///< Load sign extension
    bool safe = false;     ///< Load may be speculated (if-conversion)
    int tblk = -1;         ///< Br/Jump: target block id
    int fblk = -1;         ///< Br: fall-through block id

    bool isTerminator() const
    {
        return op == IrOp::Br || op == IrOp::Jump || op == IrOp::Ret;
    }
    bool hasSideEffect() const { return op == IrOp::Store; }
};

/** A basic block: straight-line instructions + one terminator. */
struct Block
{
    int id = -1;
    std::string name;
    std::vector<IrInst> insts;

    const IrInst &terminator() const { return insts.back(); }
    bool
    terminated() const
    {
        return !insts.empty() && insts.back().isTerminator();
    }
};

/** A function: argument registers, blocks, virtual-register counter. */
struct Function
{
    std::string name;
    unsigned numArgs = 0; ///< args arrive in virtual regs 0..numArgs-1
    std::vector<Block> blocks;
    VReg nextReg = 0;

    VReg newReg() { return nextReg++; }

    Block &
    block(int id)
    {
        return blocks[static_cast<size_t>(id)];
    }
    const Block &
    block(int id) const
    {
        return blocks[static_cast<size_t>(id)];
    }

    /** Append a new empty block; returns its id. */
    int addBlock(const std::string &name);

    /** Successor block ids of @p blk. */
    std::vector<int> successors(int blk) const;

    /** Predecessor block ids of @p blk (computed on demand). */
    std::vector<int> predecessors(int blk) const;

    /** Human-readable dump for debugging and golden tests. */
    std::string dump() const;

    /**
     * Structural validation: blocks terminated, operands in range,
     * targets valid.  Panics with a description on failure.
     */
    void verify() const;
};

/**
 * Convenience builder that appends instructions to a current block.
 * Mirrors classic IRBuilder APIs.
 */
class IrBuilder
{
  public:
    explicit IrBuilder(Function &fn) : fn_(fn) {}

    /** Create args: virtual registers 0..n-1. */
    void declareArgs(unsigned n);

    int newBlock(const std::string &name) { return fn_.addBlock(name); }
    void setBlock(int id) { cur_ = id; }

    VReg iconst(int64_t v);
    VReg add(VReg a, VReg b) { return bin(IrOp::Add, a, b); }
    VReg sub(VReg a, VReg b) { return bin(IrOp::Sub, a, b); }
    VReg mul(VReg a, VReg b) { return bin(IrOp::Mul, a, b); }
    VReg div(VReg a, VReg b) { return bin(IrOp::Div, a, b); }
    VReg xor_(VReg a, VReg b) { return bin(IrOp::Xor, a, b); }
    VReg addi(VReg a, int64_t imm) { return immOp(IrOp::AddI, a, imm); }
    VReg muli(VReg a, int64_t imm) { return immOp(IrOp::MulI, a, imm); }
    VReg shli(VReg a, int64_t imm) { return immOp(IrOp::ShlI, a, imm); }
    VReg srai(VReg a, int64_t imm) { return immOp(IrOp::SraI, a, imm); }

    /** dst <- a (emitted as OrI a, 0 into an existing register). */
    void copyTo(VReg dst, VReg src);

    VReg load(VReg base, int64_t disp, unsigned size = 8,
              bool isSigned = true, bool safe = false);
    VReg loadx(VReg base, VReg index, unsigned size = 8,
               bool isSigned = true, bool safe = false);
    void store(VReg val, VReg base, int64_t disp, unsigned size = 8);
    void storex(VReg val, VReg base, VReg index, unsigned size = 8);

    VReg select(Cond c, VReg a, VReg b, VReg x, VReg y);
    VReg max(VReg a, VReg b);
    VReg min(VReg a, VReg b);
    /** acc = max(acc, b) in place (single instruction, no copy). */
    void maxInto(VReg acc, VReg b);
    void minInto(VReg acc, VReg b);
    /** In-place binary ops (dst = dst op b), one instruction each. */
    void addInto(VReg acc, VReg b);
    void subInto(VReg acc, VReg b);
    /** In-place immediate add: acc += imm. */
    void addiInto(VReg acc, int64_t imm);

    void br(Cond c, VReg a, VReg b, int tblk, int fblk);
    void jump(int blk);
    void ret(VReg v = kNoReg);

    Function &fn() { return fn_; }

  private:
    VReg bin(IrOp op, VReg a, VReg b);
    VReg immOp(IrOp op, VReg a, int64_t imm);
    void append(IrInst inst);

    Function &fn_;
    int cur_ = -1;
};

} // namespace bp5::mpc

#endif // BIOPERF5_MPC_IR_H
