/**
 * @file
 * Differential fuzzing of the functional executor: every computational
 * opcode and every branch form is single-stepped with random operand
 * values and the result is compared against independently written C++
 * semantic models.  Each case runs three ways through the executor's
 * one loop: a one-instruction hooked run (the timing model's path) on
 * a pre-decoded image slot, the same on code outside the image
 * (decoded fresh), and runFast().  The hooked runs also check what the
 * timing model reads: the micro-op's static timing facts against
 * isa::opInfo/srcDeps/dstDeps, and the FastCtx outcome.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "isa/encode.h"
#include "sim/exec.h"
#include "support/bitfield.h"
#include "support/random.h"

namespace bp5::sim {
namespace {

using isa::Inst;
using isa::Op;

/** Independent model of RT = f(RA, RB) for the two-source ops. */
int64_t
model(Op op, int64_t a, int64_t b)
{
    uint64_t ua = static_cast<uint64_t>(a);
    uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case Op::ADD: return static_cast<int64_t>(ua + ub);
      case Op::SUBF: return static_cast<int64_t>(ub - ua); // rb - ra
      case Op::MULLD: return static_cast<int64_t>(ua * ub);
      case Op::DIVD:
        return (b == 0 || (a == INT64_MIN && b == -1)) ? 0 : a / b;
      case Op::DIVDU:
        return ub == 0 ? 0 : static_cast<int64_t>(ua / ub);
      case Op::AND: return static_cast<int64_t>(ua & ub);
      case Op::ANDC: return static_cast<int64_t>(ua & ~ub);
      case Op::OR: return static_cast<int64_t>(ua | ub);
      case Op::ORC: return static_cast<int64_t>(ua | ~ub);
      case Op::XOR: return static_cast<int64_t>(ua ^ ub);
      case Op::NOR: return static_cast<int64_t>(~(ua | ub));
      case Op::NAND: return static_cast<int64_t>(~(ua & ub));
      case Op::EQV: return static_cast<int64_t>(~(ua ^ ub));
      case Op::SLD: {
        unsigned sh = unsigned(ub) & 127;
        return sh >= 64 ? 0 : static_cast<int64_t>(ua << sh);
      }
      case Op::SRD: {
        unsigned sh = unsigned(ub) & 127;
        return sh >= 64 ? 0 : static_cast<int64_t>(ua >> sh);
      }
      case Op::SRAD: {
        unsigned sh = unsigned(ub) & 127;
        return sh >= 64 ? (a < 0 ? -1 : 0) : (a >> sh);
      }
      case Op::MAXD: return a > b ? a : b;
      case Op::MIND: return a < b ? a : b;
      default:
        ADD_FAILURE() << "model missing op";
        return 0;
    }
}

/** Independent model of the unary ops. */
int64_t
modelUnary(Op op, int64_t a)
{
    switch (op) {
      case Op::NEG:
        return static_cast<int64_t>(~static_cast<uint64_t>(a) + 1);
      case Op::EXTSB: return sext(static_cast<uint64_t>(a), 8);
      case Op::EXTSH: return sext(static_cast<uint64_t>(a), 16);
      case Op::EXTSW: return sext(static_cast<uint64_t>(a), 32);
      case Op::CNTLZD:
        return std::countl_zero(static_cast<uint64_t>(a));
      default:
        ADD_FAILURE() << "model missing unary op";
        return 0;
    }
}

/** The ways SingleStepper drives the executor. */
enum class Path
{
    InImage,    ///< hooked run on a pre-decoded image slot
    OutOfImage, ///< hooked run on a micro-op decoded fresh from memory
    RunFast,    ///< runFast() for one instruction
};

constexpr Path kPaths[] = {Path::InImage, Path::OutOfImage, Path::RunFast};

const char *
pathName(Path p)
{
    switch (p) {
      case Path::InImage: return "hooked run in image";
      case Path::OutOfImage: return "hooked run out of image";
      case Path::RunFast: return "runFast()";
    }
    return "?";
}

/** What the timing model's hook saw of one retired op. */
struct Outcome
{
    uint64_t pc = 0;
    bool isBranch = false;
    bool isCondBranch = false;
    bool isLoad = false;
    bool isStore = false;
    uint64_t memAddr = 0; ///< FastCtx outcome fields, as left
    bool taken = false;
    uint64_t target = 0;
};

/** The micro-op's timing facts equal what isa:: derives per call. */
void
expectTimingFacts(const MicroOp &mo)
{
    const isa::Inst &i = mo.inst;
    const isa::OpInfo &opi = i.info();
    SCOPED_TRACE(std::string(isa::mnemonic(i.op)));
    EXPECT_EQ(mo.unit, opi.unit);
    EXPECT_EQ(mo.latency, opi.latency);
    unsigned occ = 1;
    if (i.op == Op::DIVD || i.op == Op::DIVDU)
        occ = opi.latency;
    else if (i.op == Op::MULLD || i.op == Op::MULLI)
        occ = 2;
    EXPECT_EQ(mo.occupancy, occ);
    unsigned deps[isa::kMaxDeps];
    unsigned n = isa::srcDeps(i, deps);
    ASSERT_EQ(mo.nsrc, n);
    for (unsigned k = 0; k < n; ++k)
        EXPECT_EQ(mo.src[k], deps[k]);
    n = isa::dstDeps(i, deps);
    ASSERT_EQ(mo.ndst, n);
    for (unsigned k = 0; k < n; ++k)
        EXPECT_EQ(mo.dst[k], deps[k]);
    EXPECT_EQ(mo.isBranch, opi.isBranch);
    EXPECT_EQ(mo.isCondBranch,
              opi.isCondBranch && i.bo != isa::BO_ALWAYS);
    EXPECT_EQ(mo.isLoad, opi.isLoad);
    EXPECT_EQ(mo.isStore, opi.isStore);
}

/** Single-step one instruction at kPc with preset registers. */
class SingleStepper
{
  public:
    static constexpr uint64_t kPc = 0x10000;

    explicit SingleStepper(Path path) : path_(path), exec_(state_, mem_)
    {
        if (path != Path::OutOfImage)
            exec_.setImage(kPc, 4);
    }

    /** Execute @p inst; the Outcome is empty on the runFast() path. */
    Outcome
    step(const Inst &inst)
    {
        state_.pc = kPc;
        mem_.writeU32(kPc, isa::encode(inst));
        exec_.invalidateDecodeCache();
        if (path_ == Path::RunFast) {
            EXPECT_EQ(exec_.runFast(1, counters_).executed, 1u);
            return Outcome();
        }
        Outcome o;
        unsigned calls = 0;
        auto hook = [&](const MicroOp &mo, uint64_t pc, const FastCtx &x) {
            ++counters_.instructions;
            ++calls;
            expectTimingFacts(mo);
            o.pc = pc;
            o.isBranch = mo.isBranch;
            o.isCondBranch = mo.isCondBranch;
            o.isLoad = mo.isLoad;
            o.isStore = mo.isStore;
            o.memAddr = x.memAddr;
            o.taken = x.taken;
            o.target = x.target;
        };
        EXPECT_EQ(exec_.runHooked(1, counters_, hook).executed, 1u);
        EXPECT_EQ(calls, 1u);
        return o;
    }

    /** Whether step() returns the hook's Outcome. */
    bool reportsOutcome() const { return path_ != Path::RunFast; }

    Path path_;
    CoreState state_;
    Memory mem_;
    Executor exec_;
    Counters counters_;
};

int64_t
interestingValue(Rng &r)
{
    switch (r.below(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return -1;
      case 3: return INT64_MAX;
      case 4: return INT64_MIN;
      case 5: return r.range(-128, 127);
      case 6: return static_cast<int64_t>(r.next() & 0x7f); // shifts
      default: return static_cast<int64_t>(r.next());
    }
}

/** A load/store's micro-op flags and address (hooked paths only). */
void
expectMemInfo(const SingleStepper &ss, const Outcome &si, bool store,
              uint64_t ea)
{
    if (!ss.reportsOutcome())
        return;
    EXPECT_EQ(si.isLoad, !store);
    EXPECT_EQ(si.isStore, store);
    EXPECT_EQ(si.memAddr, ea);
    EXPECT_FALSE(si.isBranch);
}

class ExecAluFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecAluFuzz, BinaryOpsMatchModel)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(7000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        const Op binOps[] = {Op::ADD, Op::SUBF, Op::MULLD, Op::DIVD,
                             Op::DIVDU, Op::AND, Op::ANDC, Op::OR,
                             Op::ORC, Op::XOR, Op::NOR, Op::NAND,
                             Op::EQV, Op::SLD, Op::SRD, Op::SRAD,
                             Op::MAXD, Op::MIND};
        for (int iter = 0; iter < 50; ++iter) {
            for (Op op : binOps) {
                int64_t a = interestingValue(r);
                int64_t b = interestingValue(r);
                ss.state_.gpr[4] = static_cast<uint64_t>(a);
                ss.state_.gpr[5] = static_cast<uint64_t>(b);
                ss.step(isa::mkX(op, 3, 4, 5));
                EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[3]),
                          model(op, a, b))
                    << isa::mnemonic(op) << " a=" << a << " b=" << b;
            }
        }
    }
}

TEST_P(ExecAluFuzz, UnaryOpsMatchModel)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(8000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 50; ++iter) {
            for (Op op : {Op::NEG, Op::EXTSB, Op::EXTSH, Op::EXTSW,
                          Op::CNTLZD}) {
                int64_t a = interestingValue(r);
                ss.state_.gpr[4] = static_cast<uint64_t>(a);
                ss.step(isa::mkUnary(op, 3, 4));
                EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[3]),
                          modelUnary(op, a))
                    << isa::mnemonic(op) << " a=" << a;
            }
        }
    }
}

TEST_P(ExecAluFuzz, ImmediateShiftsMatchModel)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(9000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 60; ++iter) {
            int64_t a = interestingValue(r);
            unsigned sh = unsigned(r.below(64));
            ss.state_.gpr[4] = static_cast<uint64_t>(a);
            ss.step(isa::mkShImm(Op::SLDI, 3, 4, sh));
            EXPECT_EQ(ss.state_.gpr[3], static_cast<uint64_t>(a) << sh);
            ss.step(isa::mkShImm(Op::SRDI, 3, 4, sh));
            EXPECT_EQ(ss.state_.gpr[3], static_cast<uint64_t>(a) >> sh);
            ss.step(isa::mkShImm(Op::SRADI, 3, 4, sh));
            EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[3]), a >> sh);
        }
    }
}

TEST_P(ExecAluFuzz, ComparesSetExactlyOneOrderingBit)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(10000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 60; ++iter) {
            int64_t a = interestingValue(r);
            int64_t b = interestingValue(r);
            unsigned bf = unsigned(r.below(8));
            ss.state_.gpr[4] = static_cast<uint64_t>(a);
            ss.state_.gpr[5] = static_cast<uint64_t>(b);

            ss.step(isa::mkCmp(Op::CMP, bf, 4, 5, true));
            unsigned f = ss.state_.crField(bf);
            unsigned expect = a < b   ? 1u << isa::CR_LT
                              : a > b ? 1u << isa::CR_GT
                                      : 1u << isa::CR_EQ;
            EXPECT_EQ(f, expect) << "cmp a=" << a << " b=" << b;

            ss.step(isa::mkCmp(Op::CMPL, bf, 4, 5, true));
            uint64_t ua = static_cast<uint64_t>(a);
            uint64_t ub = static_cast<uint64_t>(b);
            unsigned expectU = ua < ub   ? 1u << isa::CR_LT
                               : ua > ub ? 1u << isa::CR_GT
                                         : 1u << isa::CR_EQ;
            EXPECT_EQ(ss.state_.crField(bf), expectU);
        }
    }
}

TEST_P(ExecAluFuzz, IselTracksCrBit)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(11000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 60; ++iter) {
            unsigned bit = unsigned(r.below(32));
            bool set = r.chance(0.5);
            ss.state_.cr = set ? (1u << bit) : 0;
            uint64_t x = r.next(), y = r.next();
            ss.state_.gpr[4] = x;
            ss.state_.gpr[5] = y;
            ss.step(isa::mkIsel(3, 4, 5, bit));
            EXPECT_EQ(ss.state_.gpr[3], set ? x : y);
        }
    }
}

TEST_P(ExecAluFuzz, RecordFormsTrackResultSign)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(12000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 60; ++iter) {
            int64_t a = interestingValue(r);
            int64_t b = interestingValue(r);
            ss.state_.gpr[4] = static_cast<uint64_t>(a);
            ss.state_.gpr[5] = static_cast<uint64_t>(b);
            ss.step(isa::mkX(Op::ADD, 3, 4, 5, true));
            int64_t res = model(Op::ADD, a, b);
            unsigned f = ss.state_.crField(0);
            unsigned expect = res < 0   ? 1u << isa::CR_LT
                              : res > 0 ? 1u << isa::CR_GT
                                        : 1u << isa::CR_EQ;
            EXPECT_EQ(f, expect);
        }
    }
}

TEST_P(ExecAluFuzz, MemoryRoundTripAllSizes)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(13000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        const struct
        {
            Op st, ldz;
            Op lds;     // sign-extending load, INVALID if none
            unsigned bits;
        } combos[] = {
            {Op::STB, Op::LBZ, Op::INVALID, 8},
            {Op::STH, Op::LHZ, Op::LHA, 16},
            {Op::STW, Op::LWZ, Op::LWA, 32},
            {Op::STD, Op::LD, Op::INVALID, 64},
        };
        for (int iter = 0; iter < 40; ++iter) {
            for (const auto &c : combos) {
                uint64_t v = r.next();
                int32_t disp = int32_t(r.range(-512, 511)) & ~7;
                const uint64_t ea = 0x8000 + int64_t(disp);
                ss.state_.gpr[7] = 0x8000;
                ss.state_.gpr[3] = v;
                expectMemInfo(ss, ss.step(isa::mkD(c.st, 3, 7, disp)), true,
                              ea);
                expectMemInfo(ss, ss.step(isa::mkD(c.ldz, 4, 7, disp)),
                              false, ea);
                uint64_t expectZ = c.bits >= 64 ? v : (v & mask(c.bits));
                EXPECT_EQ(ss.state_.gpr[4], expectZ)
                    << isa::mnemonic(c.ldz);
                if (c.lds != Op::INVALID) {
                    expectMemInfo(ss, ss.step(isa::mkD(c.lds, 5, 7, disp)),
                                  false, ea);
                    EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[5]),
                              sext(v, c.bits))
                        << isa::mnemonic(c.lds);
                }
            }
        }
        // Per round: 4 stores, 4 zero-extending and 2 sign-extending
        // loads.
        EXPECT_EQ(ss.counters_.stores, 40u * 4);
        EXPECT_EQ(ss.counters_.loads, 40u * 6);
        EXPECT_EQ(ss.counters_.instructions, 40u * 10);
    }
}

INSTANTIATE_TEST_SUITE_P(Rounds, ExecAluFuzz, ::testing::Range(0, 5));

/// The forms the fuzzers above do not reach (immediate ALU ops, indexed
/// memory, CR logic, SPR moves, mfcr, sc) decode the same timing facts
/// as isa:: derives; the hook checks every step.
TEST(MicroOpTimingFacts, RemainingFormsMatchIsa)
{
    for (Path path : {Path::InImage, Path::OutOfImage}) {
        SCOPED_TRACE(pathName(path));
        SingleStepper ss(path);
        ss.state_.gpr[7] = 0x8000;
        ss.state_.gpr[8] = 16;
        const Inst forms[] = {
            isa::mkD(Op::ADDIS, 3, 4, -2),
            isa::mkD(Op::MULLI, 3, 4, 9),
            isa::mkD(Op::ORIS, 3, 4, 0x1234),
            isa::mkD(Op::XORI, 3, 4, 0x55),
            isa::mkD(Op::ANDI_RC, 3, 4, 0xff),
            isa::mkCmpi(Op::CMPI, 2, 4, -3),
            isa::mkCmpi(Op::CMPLI, 5, 4, 3, false),
            isa::mkX(Op::STBX, 3, 7, 8),
            isa::mkX(Op::STHX, 3, 7, 8),
            isa::mkX(Op::STWX, 3, 7, 8),
            isa::mkX(Op::STDX, 3, 7, 8),
            isa::mkX(Op::LBZX, 3, 7, 8),
            isa::mkX(Op::LHZX, 3, 7, 8),
            isa::mkX(Op::LHAX, 3, 7, 8),
            isa::mkX(Op::LWZX, 3, 7, 8),
            isa::mkX(Op::LWAX, 3, 7, 8),
            isa::mkX(Op::LDX, 3, 7, 8),
            isa::mkCrOp(Op::CRAND, 1, 6, 30),
            isa::mkCrOp(Op::CROR, 9, 2, 17),
            isa::mkCrOp(Op::CRXOR, 31, 0, 12),
            isa::mkCrOp(Op::CRNOR, 4, 4, 4),
            isa::mkMtspr(isa::SPR_LR, 5),
            isa::mkMtspr(isa::SPR_CTR, 6),
            isa::mkMfspr(9, isa::SPR_LR),
            isa::mkMfspr(10, isa::SPR_CTR),
            isa::mkMfcr(11),
            isa::mkSc(),
        };
        for (const Inst &i : forms) {
            if (i.op == Op::SC) {
                ss.state_.gpr[0] = isa::SYS_PUTC;
                ss.state_.gpr[3] = 'x';
            }
            ss.step(i);
        }
        EXPECT_EQ(ss.exec_.console(), "x");
        EXPECT_EQ(ss.counters_.instructions, std::size(forms));
    }
}

// ---------------------------------------------------------------------
// Branches.
// ---------------------------------------------------------------------

/** Architectural effect of one branch, from the independent model. */
struct BranchModel
{
    uint64_t nextPc = 0;
    uint64_t lr = 0;
    uint64_t ctr = 0;
    bool cond = false;   ///< a conditional branch (BO != BO_ALWAYS)
    bool taken = false;
    uint64_t target = 0; ///< 0 when not taken
};

/**
 * Independent model of b/bc/bclr/bcctr at @p pc.  MiniPOWER decrements
 * CTR only in bc (BO_DNZ/BO_DZ), before testing it; bclr and bcctr test
 * CTR as it is.  The indirect target drops the low two bits and is read
 * before the link write, so blrl returns to the old LR.
 */
BranchModel
modelBranch(const Inst &i, uint64_t pc, uint64_t lr, uint64_t ctr,
            uint32_t cr)
{
    BranchModel m;
    m.lr = lr;
    m.ctr = ctr;
    uint64_t dest = 0;
    bool taken = true;
    const uint64_t direct =
        i.aa ? static_cast<uint64_t>(static_cast<int64_t>(i.imm))
             : pc + static_cast<uint64_t>(static_cast<int64_t>(i.imm));
    if (i.op == Op::B) {
        dest = direct;
    } else {
        if (i.op == Op::BC) {
            dest = direct;
            if (i.bo == isa::BO_DNZ || i.bo == isa::BO_DZ)
                m.ctr = ctr - 1;
        } else {
            dest = (i.op == Op::BCLR ? lr : ctr) & ~uint64_t(3);
        }
        const bool crSet = (cr >> i.bi) & 1;
        m.cond = i.bo != isa::BO_ALWAYS;
        switch (i.bo) {
          case isa::BO_ALWAYS: taken = true; break;
          case isa::BO_COND_TRUE: taken = crSet; break;
          case isa::BO_COND_FALSE: taken = !crSet; break;
          case isa::BO_DNZ: taken = m.ctr != 0; break;
          case isa::BO_DZ: taken = m.ctr == 0; break;
          default: ADD_FAILURE() << "model missing BO " << unsigned(i.bo);
        }
    }
    if (i.lk)
        m.lr = pc + 4;
    m.taken = taken;
    m.target = taken ? dest : 0;
    m.nextPc = taken ? dest : pc + 4;
    return m;
}

constexpr unsigned kBranchBos[] = {isa::BO_ALWAYS, isa::BO_COND_TRUE,
                                   isa::BO_COND_FALSE, isa::BO_DNZ,
                                   isa::BO_DZ};

/** CTR values around the BO_DNZ/BO_DZ decision points. */
uint64_t
interestingCtr(Rng &r)
{
    switch (r.below(5)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2;
      default: return r.next();
    }
}

/**
 * Step @p inst with the given LR/CTR/CR on @p ss and check next pc,
 * LR, CTR, the branch counters and (hooked paths) the micro-op's branch
 * flags and the FastCtx direction and, when taken, target against the
 * model.  Returns the model's outcome.
 */
BranchModel
checkBranch(SingleStepper &ss, const Inst &inst, uint64_t lr, uint64_t ctr,
            uint32_t cr)
{
    const uint64_t pc = SingleStepper::kPc;
    BranchModel m = modelBranch(inst, pc, lr, ctr, cr);
    ss.state_.lr = lr;
    ss.state_.ctr = ctr;
    ss.state_.cr = cr;
    const Counters before = ss.counters_;
    Outcome si = ss.step(inst);

    EXPECT_EQ(ss.state_.pc, m.nextPc);
    EXPECT_EQ(ss.state_.lr, m.lr);
    EXPECT_EQ(ss.state_.ctr, m.ctr);
    const Counters &c = ss.counters_;
    EXPECT_EQ(c.branches - before.branches, 1u);
    EXPECT_EQ(c.condBranches - before.condBranches, m.cond ? 1u : 0u);
    EXPECT_EQ(c.takenBranches - before.takenBranches, m.taken ? 1u : 0u);
    if (ss.reportsOutcome()) {
        EXPECT_EQ(si.pc, pc);
        EXPECT_TRUE(si.isBranch);
        EXPECT_EQ(si.isCondBranch, m.cond);
        EXPECT_EQ(si.taken, m.taken);
        // The timing model reads the target only when taken.
        if (m.taken) {
            EXPECT_EQ(si.target, m.target);
        }
        EXPECT_FALSE(si.isLoad || si.isStore);
    }
    return m;
}

std::string
describe(const Inst &i, uint64_t lr, uint64_t ctr, uint32_t cr)
{
    return std::string(isa::mnemonic(i.op)) + " bo=" +
           std::to_string(i.bo) + " bi=" + std::to_string(i.bi) +
           " lk=" + std::to_string(i.lk) + " aa=" + std::to_string(i.aa) +
           " imm=" + std::to_string(i.imm) + " lr=" + std::to_string(lr) +
           " ctr=" + std::to_string(ctr) + " cr=" + std::to_string(cr);
}

class ExecBranchFuzz : public ::testing::TestWithParam<int> {};

/// b and bc over every BO x lk x aa, relative and absolute targets.
TEST_P(ExecBranchFuzz, DirectBranchesMatchModel)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(14000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 20; ++iter) {
            for (bool lk : {false, true}) {
                for (bool aa : {false, true}) {
                    // Word-aligned displacement: +-32 KiB for bc (the
                    // 14-bit BD field), wider for b.
                    Inst b = isa::mkB(
                        int32_t(r.range(-0x100000, 0xfffff)) & ~3, lk);
                    b.aa = aa;
                    uint64_t lr = r.next(), ctr = interestingCtr(r);
                    uint32_t cr = static_cast<uint32_t>(r.next());
                    SCOPED_TRACE(describe(b, lr, ctr, cr));
                    checkBranch(ss, b, lr, ctr, cr);

                    for (unsigned bo : kBranchBos) {
                        Inst bc = isa::mkBc(
                            bo, unsigned(r.below(32)),
                            int32_t(r.range(-0x8000, 0x7fff)) & ~3, lk);
                        bc.aa = aa;
                        lr = r.next();
                        ctr = interestingCtr(r);
                        cr = static_cast<uint32_t>(r.next());
                        SCOPED_TRACE(describe(bc, lr, ctr, cr));
                        checkBranch(ss, bc, lr, ctr, cr);
                    }
                }
            }
        }
    }
}

/// bclr/bcctr over every BO x lk: target & ~3, LR read before the link
/// write, CTR tested but not decremented.
TEST_P(ExecBranchFuzz, IndirectBranchesMatchModel)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(15000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        for (int iter = 0; iter < 20; ++iter) {
            for (bool viaCtr : {false, true}) {
                for (bool lk : {false, true}) {
                    for (unsigned bo : kBranchBos) {
                        unsigned bi = unsigned(r.below(32));
                        Inst i = viaCtr ? isa::mkBcctr(bo, bi)
                                        : isa::mkBclr(bo, bi);
                        i.lk = lk;
                        uint64_t lr = r.next(), ctr = interestingCtr(r);
                        if (viaCtr && r.below(2))
                            ctr = r.next(); // an arbitrary target
                        uint32_t cr = static_cast<uint32_t>(r.next());
                        SCOPED_TRACE(describe(i, lr, ctr, cr));
                        checkBranch(ss, i, lr, ctr, cr);
                    }
                }
            }
        }
    }
}

/// A conditional branch to pc + 4: taken and not taken reach the same
/// next pc and differ only in the outcome fields and counters, so the
/// executor must report the handler's outcome, not infer it from the pc.
TEST_P(ExecBranchFuzz, BranchToNextPcReportsOutcome)
{
    for (Path path : kPaths) {
        SCOPED_TRACE(pathName(path));
        Rng r(16000 + static_cast<uint64_t>(GetParam()));
        SingleStepper ss(path);
        unsigned taken = 0, untaken = 0;
        for (unsigned bo : kBranchBos) {
            for (bool lk : {false, true}) {
                for (uint64_t ctr : {uint64_t(1), uint64_t(2)}) {
                    for (bool crSet : {false, true}) {
                        unsigned bi = unsigned(r.below(32));
                        Inst i = isa::mkBc(bo, bi, 4, lk);
                        uint32_t cr = crSet ? 1u << bi : 0u;
                        uint64_t lr = r.next();
                        SCOPED_TRACE(describe(i, lr, ctr, cr));
                        BranchModel m = checkBranch(ss, i, lr, ctr, cr);
                        EXPECT_EQ(m.nextPc, SingleStepper::kPc + 4);
                        ++(m.taken ? taken : untaken);
                    }
                }
            }
        }
        EXPECT_GT(taken, 0u);
        EXPECT_GT(untaken, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Rounds, ExecBranchFuzz, ::testing::Range(0, 5));

} // namespace
} // namespace bp5::sim
