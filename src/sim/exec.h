/**
 * @file
 * Functional executor: architecturally executes MiniPOWER instructions
 * and reports what happened so the timing model can replay the
 * committed stream.
 *
 * The ISA semantics live in one place: one micro-op handler per
 * operation class.  A handler retires one instruction (architectural
 * update, architectural counter bumps, optional warming), takes the
 * instruction's pc and returns the next one, and records the memory
 * address and branch outcome in its FastCtx.  Two entry points call them:
 *
 *  - runFast(): the compiled-engine loop.  setImage() registers the
 *    program's text segment; each 4-byte slot is lazily decoded once
 *    into a MicroOp whose handler is then called directly, with the pc
 *    and the image held in locals.  Used for functional runs and
 *    SMARTS fast-forward, optionally warming the branch predictor,
 *    BTAC and L1D en route.
 *  - step(): one instruction per call through the same handler,
 *    returning a StepInfo (filled from the FastCtx outcome and
 *    isa::OpInfo) for the timing model.
 *
 * Code outside the image (copied or generated at run time) runs in
 * both through a MicroOp decoded fresh from memory each time.
 * Decode stays lazy (slot built on first execution): data words inside
 * the image never decode, invalid encodings panic only if reached, and
 * stores to not-yet-executed code take effect.
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

class Btac;
class Cache;
class DirectionPredictor;

/** Everything the timing model needs to know about one retired op. */
struct StepInfo
{
    uint64_t pc = 0;
    isa::Inst inst;

    bool isBranch = false;
    bool isCondBranch = false; ///< BC/BCLR/BCCTR with BO != BO_ALWAYS
    bool taken = false;        ///< branch direction (unconditional: true)
    uint64_t target = 0;       ///< branch target when taken, else 0

    bool isLoad = false;
    bool isStore = false;
    uint64_t memAddr = 0;

    bool halted = false;     ///< SYS_EXIT executed
    int64_t exitCode = 0;
};

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
    /// Outcome of the last retired op, read back by Executor::step():
    /// a load/store's effective address, a branch's direction and its
    /// target (set whether or not the branch is taken).
    uint64_t memAddr = 0;
    uint64_t target = 0;
    bool taken = false;
    /// Optional functional-warming hooks (SMARTS fast-forward).
    DirectionPredictor *pred = nullptr;
    Btac *btac = nullptr;
    Cache *l1d = nullptr;
};

/** One pre-decoded slot of the micro-op image. */
struct MicroOp
{
    /// Execute handler: retires the op at @p pc, returns the next pc.
    using Fn = uint64_t (*)(const MicroOp &, FastCtx &, uint64_t pc);
    Fn fn = nullptr;   ///< nullptr = not yet decoded
    isa::Inst inst;    ///< decoded form (timing model, slow paths)
    uint64_t imm = 0;  ///< pre-computed immediate: sign/zero-extended
                       ///< (and pre-shifted for ADDIS/ORIS), or the
                       ///< absolute target for direct branches
};

/** Functional MiniPOWER core. */
class Executor
{
  public:
    Executor(CoreState &state, Memory &mem) : state_(state), mem_(mem) {}

    /**
     * Fetch, decode and execute the instruction at state.pc, advancing
     * architectural state and adding its architectural counts
     * (instructions, opCount, branch/load/store counts) to @p c.
     * Inside the registered image the pre-decoded micro-op provides
     * the decode; outside it the word is decoded fresh from memory.
     * Panics on invalid encodings (the program image is broken).
     */
    StepInfo step(Counters &c);

    /** Outcome of a runFast() burst. */
    struct FastResult
    {
        uint64_t executed = 0;
        bool halted = false;
        int64_t exitCode = 0;
    };

    /** Structures to warm functionally during fast-forward. */
    struct Warming
    {
        DirectionPredictor *pred = nullptr;
        Btac *btac = nullptr; ///< pass nullptr when BTAC is disabled
        Cache *l1d = nullptr;
    };

    /**
     * Execute up to @p max instructions, accumulating the same
     * architectural counters as step() (never cycles) into @p c.
     * With @p warm, conditional-branch outcomes update the direction
     * predictor, all branches update the BTAC and memory ops touch the
     * L1D, mirroring the detailed model's update rules.
     */
    FastResult runFast(uint64_t max, Counters &c,
                       const Warming *warm = nullptr);

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
     * Drop all decoded micro-ops (after loading a new program image or
     * on reset); the image range is kept and slots rebuild lazily from
     * current memory contents, so reset ≡ fresh holds bit-for-bit.
     */
    void invalidateDecodeCache();

  private:
    const MicroOp &microOpAt(MicroOp *ops, uint64_t base, uint64_t bytes,
                             uint64_t pc);
    /** Decode the word at @p pc into @p mo; returns @p mo. */
    const MicroOp &buildMicroOp(MicroOp &mo, uint64_t pc) const;

    CoreState &state_;
    Memory &mem_;
    std::string console_;

    uint64_t imageBase_ = 0;
    uint64_t imageBytes_ = 0;
    std::vector<MicroOp> ops_;
    MicroOp scratch_; ///< out-of-image code, decoded fresh each time
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_EXEC_H
