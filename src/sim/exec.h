/**
 * @file
 * Functional executor: architecturally executes MiniPOWER instructions
 * and reports what happened so the timing model can replay the
 * committed stream.
 *
 * The executor is pure ISA.  The semantics live in one place: one
 * micro-op handler per operation class.  A handler retires one
 * instruction (architectural update, architectural counter bumps),
 * takes the instruction's pc and returns the next one, and records the
 * memory address and branch outcome in its FastCtx.  It trains no
 * microarchitectural structure: the predictor, BTAC and caches belong
 * to the Machine, which trains them from the outcome in its hook.
 *
 * The handlers are leaf functions on their common path.  A load or
 * store reaches guest memory through Memory::residentPtr (a page-bound
 * check and a TLB tag compare); a TLB miss or a page-crossing access
 * is tail-called into an out-of-line slow path, so the hit path needs
 * no stack frame.
 *
 * setImage() registers the program's text segment; each 4-byte slot is
 * lazily decoded once into a MicroOp holding the handler, the decoded
 * instruction and its static timing facts (unit, latency, occupancy,
 * dependency names, branch/load/store flags).  Code outside the image
 * (copied or generated at run time) runs through a MicroOp decoded
 * fresh from memory each time.  Decode stays lazy (slot built on first
 * execution): data words inside the image never decode, invalid
 * encodings panic only if reached, and stores to not-yet-executed code
 * take effect.
 *
 * A slot keeps its raw word.  invalidateDecodeCache() clears only the
 * handlers, so each slot is re-checked at its next execution: when
 * memory still holds its word, the decoded instruction and timing facts
 * are kept and only the handler is bound again (it depends on the pc
 * too).  The image thus survives Machine::reset while each run sees
 * code exactly as a fresh lazy decode would.
 *
 * There is one executor loop, runHooked(), with the pc and the image
 * held in locals.  After each retired instruction it calls a
 * per-instruction hook with the micro-op, its pc and the FastCtx:
 *
 *  - runFast() passes no hook: functional runs, and SMARTS
 *    fast-forward without functional warming.
 *  - Machine::runWarm passes a hook that trains the branch predictor,
 *    BTAC and L1D (SMARTS fast-forward with functional warming).
 *  - The timing model passes a hook that counts the instruction and
 *    schedules it (Machine::run and each sampled window).
 *
 * The FastCtx lives for a whole burst, so its outcome fields keep the
 * value of the last op that set them: a hook reads memAddr only for
 * loads/stores and taken/target only for branches.
 */

#ifndef BIOPERF5_SIM_EXEC_H
#define BIOPERF5_SIM_EXEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/encode.h"
#include "sim/core_state.h"
#include "sim/counters.h"
#include "sim/memory.h"

namespace bp5::sim {

struct MicroOp;

/** Mutable state threaded through the micro-op handlers. */
struct FastCtx
{
    CoreState &st;
    Memory &mem;
    Counters &c;
    std::string &console;
    bool halted = false;
    int64_t exitCode = 0;
    /// Outcome of the last op that set it (stale for other ops): a
    /// load/store's effective address, a branch's direction and its
    /// target (set whether or not the branch is taken).
    uint64_t memAddr = 0;
    uint64_t target = 0;
    bool taken = false;
};

/**
 * One pre-decoded slot of the micro-op image: the handler plus every
 * static fact the timing model needs, all functions of the word.  A
 * slot is exactly one cache line, so each retired instruction touches
 * one line of the image whatever the image's heap alignment.
 */
struct alignas(64) MicroOp
{
    /// Execute handler: retires the op at @p pc, returns the next pc.
    using Fn = uint64_t (*)(const MicroOp &, FastCtx &, uint64_t pc);
    Fn fn = nullptr;   ///< nullptr = not yet decoded
    uint64_t imm = 0;  ///< pre-computed immediate: sign/zero-extended
                       ///< (and pre-shifted for ADDIS/ORIS), or the
                       ///< absolute target for direct branches
    isa::Inst inst;    ///< decoded form

    // Timing facts (isa::OpInfo, srcDeps and dstDeps, decoded once).
    isa::Unit unit = isa::Unit::NONE;
    uint8_t latency = 0;   ///< execution latency (cache adds more)
    uint8_t occupancy = 0; ///< cycles the unit stays busy
    uint8_t nsrc = 0;
    uint8_t ndst = 0;
    uint8_t src[isa::kMaxDeps] = {}; ///< dependency names read
    uint8_t dst[isa::kMaxDeps] = {}; ///< dependency names written
    bool isBranch = false;
    bool isCondBranch = false; ///< BC/BCLR/BCCTR with BO != BO_ALWAYS
    bool isLoad = false;
    bool isStore = false;

    uint32_t word = 0; ///< raw word of the decoded form (valid with inst)
};
static_assert(sizeof(MicroOp) == 64, "a micro-op slot is one cache line");

/** Functional MiniPOWER core. */
class Executor
{
  public:
    Executor(CoreState &state, Memory &mem) : state_(state), mem_(mem) {}

    /** Outcome of a runHooked()/runFast() burst. */
    struct FastResult
    {
        uint64_t executed = 0;
        bool halted = false;
        int64_t exitCode = 0;
    };

    /**
     * The executor loop: execute up to @p max instructions from
     * state.pc until SYS_EXIT, adding the architectural counts
     * (opCount, branch/load/store counts; never cycles) of each to
     * @p c.  After each instruction retires it calls
     * hook(const MicroOp &, uint64_t pc, const FastCtx &) with the op's
     * micro-op, its pc and the outcome context (see the file comment
     * for which outcome fields are current).  c.instructions is left
     * to the caller.  Panics on invalid encodings (the program image
     * is broken).
     */
    template <typename Hook>
    FastResult runHooked(uint64_t max, Counters &c, Hook &&hook);

    /**
     * runHooked() with no hook: pure architectural execution
     * (functional runs, and fast-forward that warms nothing; warming
     * fast-forward is Machine::runWarm).  Adds the executed count to
     * c.instructions once per burst.
     */
    FastResult runFast(uint64_t max, Counters &c);

    /** Characters printed by SYS_PUTC / SYS_PUTINT / SYS_PUTHEX. */
    const std::string &console() const { return console_; }
    void clearConsole() { console_.clear(); }

    /**
     * Register the program text segment [base, base+bytes): allocates
     * one (undecoded) micro-op slot per word.  Replaces any previous
     * image; memory contents are not touched.
     */
    void setImage(uint64_t base, size_t bytes);

    /**
     * Make every image slot re-check its word at its next execution
     * (on reset, or after writing code behind the executor's back).
     * Clears one pointer per slot: a slot whose word still matches
     * memory keeps its decoded form and timing facts and only re-binds
     * its handler; any other slot is decoded again.  Either way the
     * slot equals a fresh decode of current memory, so reset ≡ fresh
     * holds bit-for-bit.
     */
    void invalidateDecodeCache();

  private:
    /**
     * The micro-op for @p pc: its image slot (decoded on first use) or,
     * outside the image, the scratch slot decoded from current memory.
     * The image comes in as arguments so the loop keeps it in registers.
     */
    const MicroOp &
    microOpAt(MicroOp *ops, uint64_t base, uint64_t bytes, uint64_t pc)
    {
        uint64_t off = pc - base;
        if (off < bytes && (off & 3) == 0) {
            MicroOp &mo = ops[off >> 2];
            return mo.fn ? mo : buildMicroOp(mo, pc);
        }
        return buildMicroOp(scratch_, pc);
    }

    /**
     * Make @p mo the micro-op of the word at @p pc: decode it, unless
     * @p mo already holds that word's decoded form, then bind the
     * handler; returns @p mo.
     */
    const MicroOp &buildMicroOp(MicroOp &mo, uint64_t pc) const;
    /** Decode @p word (at @p pc) into a blank @p mo with its timing
     *  facts, leaving the handler unbound. */
    static void decodeInto(MicroOp &mo, uint32_t word, uint64_t pc);
    /** Bind @p mo's handler and handler immediate (a direct branch's
     *  is its absolute target, so it depends on @p pc). */
    static void bindHandler(MicroOp &mo, uint64_t pc);

    CoreState &state_;
    Memory &mem_;
    std::string console_;

    uint64_t imageBase_ = 0;
    uint64_t imageBytes_ = 0;
    std::vector<MicroOp> ops_;
    MicroOp scratch_; ///< out-of-image code, decoded fresh each time
};

template <typename Hook>
Executor::FastResult
Executor::runHooked(uint64_t max, Counters &c, Hook &&hook)
{
    FastCtx x{state_, mem_, c, console_};

    // The pc, the image and the retired count live in locals
    // (registers) for the whole burst; state_.pc is written back once
    // at the end.  @p c is x.c, passed on its own so it stays in a
    // register across the handler calls.
    FastResult res;
    uint64_t n = 0;
    uint64_t pc = state_.pc;
    MicroOp *const ops = ops_.data();
    const uint64_t base = imageBase_;
    const uint64_t bytes = imageBytes_;
    while (n < max) {
        const MicroOp &mo = microOpAt(ops, base, bytes, pc);
        ++c.opCount[size_t(mo.inst.op)];
        const uint64_t next = mo.fn(mo, x, pc);
        hook(mo, pc, static_cast<const FastCtx &>(x));
        pc = next;
        ++n;
        if (x.halted) {
            res.halted = true;
            res.exitCode = x.exitCode;
            break;
        }
    }

    state_.pc = pc;
    res.executed = n;
    return res;
}

} // namespace bp5::sim

#endif // BIOPERF5_SIM_EXEC_H
