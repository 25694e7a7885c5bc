/**
 * @file
 * Functional executor: architecturally executes MiniPOWER instructions
 * and reports what happened so the timing model can replay the
 * committed stream.
 *
 * Two execution paths share one set of semantics:
 *
 *  - step(): one instruction per call, returning a full StepInfo for
 *    the timing model.  Used by detailed (timed) execution.
 *  - runFast(): a compiled-engine loop over a pre-decoded micro-op
 *    image.  setImage() registers the program's text segment; each
 *    4-byte slot is lazily decoded once into a MicroOp whose execute
 *    function pointer is then called directly — no hashing, no
 *    isa::Inst copies.  Handlers take the instruction's pc and return
 *    the next one, so the hot loop is pc = op.fn(op, ctx, pc) with pc
 *    and the image held in locals; state.pc is written back only
 *    around out-of-image steps and at the end of the burst.  Used for
 *    functional runs and SMARTS fast-forward, optionally warming the
 *    branch predictor, BTAC and L1D en route.
 *
 * Decode stays lazy (slot built on first execution) so the legacy
 * decode-at-first-use semantics are preserved exactly: data words
 * inside the image never decode, invalid encodings panic only if
 * reached, and stores to not-yet-executed code take effect.
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
    uint64_t nextPc = 0;
    isa::Inst inst;

    bool isBranch = false;
    bool isCondBranch = false;
    bool taken = false;      ///< branch direction (unconditional: true)
    uint64_t target = 0;     ///< branch target when taken

    bool isLoad = false;
    bool isStore = false;
    uint64_t memAddr = 0;
    unsigned memSize = 0;

    bool halted = false;     ///< SYS_EXIT executed
    int64_t exitCode = 0;
};

struct MicroOp;

/** Mutable state threaded through the fast micro-op handlers. */
struct FastCtx
{
    CoreState &st;
    Memory &mem;
    Counters &c;
    std::string &console;
    bool halted = false;
    int64_t exitCode = 0;
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
     * architectural state.  Inside the registered image the pre-decoded
     * micro-op provides the decode; outside it (or with predecode
     * disabled) the word is decoded fresh from memory each step.
     * Panics on invalid encodings (the program image is broken).
     */
    StepInfo step();

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
     * Execute up to @p max instructions through the micro-op image,
     * accumulating architectural counters (instructions, opCount,
     * branch/load/store counts — never cycles) into @p c.  Counter
     * semantics match Machine::runFunctional()'s accounting exactly.
     * With @p warm, conditional-branch outcomes update the direction
     * predictor, all branches update the BTAC and memory ops touch the
     * L1D, mirroring the detailed model's update rules.  Falls back to
     * per-step execution outside the image or with predecode disabled.
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

    /**
     * Disable the pre-decoded engine: every step decodes fresh from
     * memory and runFast degrades to the per-step loop.  Reference
     * mode for the differential engine tests.
     */
    void setPredecode(bool on) { predecode_ = on; }
    bool predecode() const { return predecode_; }

  private:
    StepInfo stepDecoded(const isa::Inst &inst, uint64_t pc);
    void buildMicroOp(MicroOp &mo, uint64_t pc) const;
    void execSyscall(StepInfo &info);

    CoreState &state_;
    Memory &mem_;
    std::string console_;

    uint64_t imageBase_ = 0;
    uint64_t imageBytes_ = 0;
    std::vector<MicroOp> ops_;
    bool predecode_ = true;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_EXEC_H
