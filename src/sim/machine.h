/**
 * @file
 * The MiniPOWER machine: functional execution plus a POWER5-class
 * out-of-order timing model.
 *
 * The timing model is trace-driven in a single pass: the functional
 * executor's one loop retires instructions in program order through
 * the same micro-op handlers as functional runs (so every mode sees
 * the same branch outcomes and architectural counters), and its
 * per-instruction hook schedules each retired instruction through
 * fetch -> decode pipe -> dispatch (ROB) -> issue (per-class units) ->
 * complete -> in-order commit, reading the static facts decoded into
 * the micro-op once per word.
 * Wrong-path instructions are not executed; their cost appears as the
 * fetch-redirect penalty of mispredicted branches (see DESIGN.md for
 * the justification).  The model reproduces the structures the paper
 * studies: the 2-cycle taken-branch bubble, the optional eight-entry
 * score-based BTAC, the tournament direction predictor, and a
 * configurable number of fixed-point units.
 */

#ifndef BIOPERF5_SIM_MACHINE_H
#define BIOPERF5_SIM_MACHINE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "masm/assembler.h"
#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/core_state.h"
#include "sim/exec.h"
#include "sim/memory.h"
#include "sim/memsys.h"
#include "sim/predictor.h"
#include "sim/trace.h"

namespace bp5::sim {

/**
 * SMARTS-style sampled-timing configuration: alternate a detailed
 * measurement window of @ref detailInstructions with a functional
 * fast-forward of @ref skipInstructions.  With @ref functionalWarming
 * the fast-forward runs through Machine::runWarm, which trains the
 * direction predictor, the BTAC (when enabled) and the L1D by the
 * timing model's own update rules; without it the fast-forward is the
 * plain functional loop and those structures keep the state the last
 * window left.  Architectural counters stay exact; cycle/event
 * counters are extrapolated from the windows.  Both fields nonzero
 * enables sampling; reset() disables it.
 */
struct SamplingParams
{
    uint64_t detailInstructions = 0; ///< instructions per window
    uint64_t skipInstructions = 0;   ///< fast-forward between windows
    bool functionalWarming = true;

    bool enabled() const
    {
        return detailInstructions > 0 && skipInstructions > 0;
    }
};

/** Result of a Machine::run invocation. */
struct RunResult
{
    Counters counters;
    bool halted = false;
    int64_t exitCode = 0;
    std::string console;

    /** Measurement bookkeeping of a sampled run (see SamplingParams). */
    struct SamplingStats
    {
        uint64_t windows = 0;
        uint64_t detailedInstructions = 0;
        uint64_t detailedCycles = 0;
        uint64_t fastForwardedInstructions = 0;
    };
    SamplingStats sampling;
    bool sampled = false; ///< counters contain extrapolated events
};

/** A single-core MiniPOWER machine with the POWER5-class timing model. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig());
    ~Machine();

    Memory &mem() { return mem_; }
    CoreState &state() { return state_; }

    /** Copy a program image into memory (does not change the PC). */
    void loadProgram(const masm::Program &prog);

    /**
     * Reset architectural state, caches, predictors, BTAC, memory
     * system and counters.  Memory contents are preserved (the loaded
     * program stays resident); everything else is bit-for-bit identical
     * to a freshly constructed Machine, so run(); reset(); run()
     * reproduces a fresh machine's counters exactly.
     *
     * Cost is independent of the cache sizes: cache flushes are one
     * store each, the BTAC and predictors are reset in place (a 48 KiB
     * fill on the baseline), and decoded micro-ops are kept and
     * re-checked against memory when next executed, one store per
     * image slot (see DESIGN.md, "Per-job reset").
     */
    void reset();

    /**
     * Run with full timing (or sampled timing, see setSampling())
     * from the current PC until SYS_EXIT or @p max_instructions.
     * Events stream to the attached trace sink (if any); attach an
     * obs::PmuSampler for interval series.
     */
    RunResult run(uint64_t max_instructions = UINT64_MAX);

    /**
     * Run functionally only (no cycle accounting; counters contain
     * instruction counts but zero cycles).  Executes through the
     * pre-decoded micro-op engine, an order of magnitude faster than
     * detailed timing; used for fast-forward and correctness tests.
     */
    RunResult runFunctional(uint64_t max_instructions = UINT64_MAX);

    /**
     * Configure SMARTS-style sampled timing for subsequent run()
     * calls (see SamplingParams; disabled by default and after
     * reset()).
     */
    void setSampling(const SamplingParams &p) { sampling_ = p; }
    const SamplingParams &sampling() const { return sampling_; }

    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Btac &btac() const { return btac_; }

    /**
     * Attach an event observer (non-owning; nullptr detaches, and
     * reset() detaches).  Each run picks its executor loop once from
     * whether a sink is attached: the untraced loop contains no sink
     * code at all, and its Counters are bit-identical to the traced
     * loop's.  Attach or detach between runs, not from a sink's hook.
     */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** Execution units per class the timing state holds inline
     *  (paper Fig 5 sweeps numFXU up to 4). */
    static constexpr unsigned kMaxUnitsPerClass = 8;

  private:
    /**
     * Per-run scheduling state of the one-pass timing model: plain
     * values, re-initialised in place at the start of each run (the
     * ROB ring lives beside it, see robCommitCycle_).
     */
    struct TimingState
    {
        // Fetch.
        uint64_t fetchAvail = 0;       ///< earliest fetch cycle for next inst
        unsigned fetchedThisCycle = 0;
        uint64_t fetchCycleCursor = 0; ///< cycle fetchedThisCycle refers to
        unsigned redirectShadow = 0;   ///< instrs fetched right after a flush

        // Dispatch.
        uint64_t dispatchCycleCursor = 0;
        unsigned dispatchedThisCycle = 0;

        // Register readiness.
        std::array<uint64_t, isa::kNumDepRegs> regReady{};
        std::array<isa::Unit, isa::kNumDepRegs> regProducer{};

        // Execution units: next free cycle per instance, per class
        // (unitCount_ instances of each class are in use).
        std::array<std::array<uint64_t, kMaxUnitsPerClass>, 5> unitFree{};

        // ROB occupancy: robCommitCycle_[robSlot] is the commit cycle
        // of the instruction robSize back.
        size_t robSlot = 0; ///< seq % robSize, kept wrapped (no divide)
        uint64_t seq = 0;   ///< dynamic instruction index

        // Commit.
        uint64_t lastCommitCycle = 0;
        unsigned committedThisCycle = 0;

        // Cause of the redirect whose shadow instructions are still
        // being fetched: false = branch misprediction, true =
        // load-ordering violation (disambiguation squash).
        bool redirectDisambig = false;

        // Cycle accounting: cycles 1..lastAccounted are already
        // attributed to a CpiComponent.  Commit cycles are monotonic
        // and cycles == the last commit cycle, so attributing each gap
        // as it closes keeps sum(cpi) == cycles at every instruction
        // boundary.
        uint64_t lastAccounted = 0;

        // POWER5-style completion groups (for the CPI-stack counters):
        // up to five instructions complete together; cycles without a
        // group completion are attributed to the slowest member.
        unsigned groupSize = 0;
        uint64_t groupMaxCc = 0; ///< slowest member's completion time
        StallReason groupReason = StallReason::Other;
        uint64_t lastGroupCommit = 0;
    };

    /**
     * Time the op that just retired at @p pc: reads only the
     * micro-op's static timing facts and the handler's outcome in
     * @p x (memAddr for loads/stores, taken/target for branches).
     * The machine's static shape is compile-time, so the loop built
     * for each shape tests none of it per instruction:
     * @tparam Traced a trace sink is attached (sink_ is not null)
     * @tparam BtacOn config_.btacEnabled
     * @tparam Classic memsys_.classic()
     */
    template <bool Traced, bool BtacOn, bool Classic>
    void scheduleInstruction(const MicroOp &mo, uint64_t pc,
                             const FastCtx &x, Counters &c);
    /** The executor loop of one shape, scheduleInstruction inlined. */
    template <bool Traced, bool BtacOn, bool Classic>
    Executor::FastResult runShape(uint64_t max, Counters &c);
    /**
     * Fast-forward up to @p max instructions with functional warming:
     * the executor loop with a hook that tests the op's branch and
     * load/store flags and runs trainOn for each branch and load/store.
     * Adds the executed count to c.instructions once per burst.
     * @tparam BtacOn config_.btacEnabled
     */
    template <bool BtacOn>
    Executor::FastResult runWarm(uint64_t max, Counters &c);
    /**
     * Train the structures on the branch or load/store that just
     * retired at @p pc with the training calls scheduleInstruction
     * makes: the L1D on a load/store's address, the direction
     * predictor on a conditional branch's outcome, the BTAC (when
     * @p BtacOn) on every branch.
     */
    template <bool BtacOn>
    void trainOn(const MicroOp &mo, uint64_t pc, const FastCtx &x);
    /** Fresh timing and store-ordering state for a new run. */
    void beginRun();
    /** Full-detail timing of up to @p max instructions into @p res. */
    uint64_t runTimed(uint64_t max, RunResult &res);
    RunResult runSampled(uint64_t max_instructions);

    MachineConfig config_;
    Memory mem_;
    CoreState state_;
    Executor exec_;

    Cache l2_;
    Cache l1i_;
    Cache l1d_;
    MemorySystem memsys_;
    DirectionPredictor predictor_;
    Btac btac_;

    TraceSink *sink_ = nullptr;
    SamplingParams sampling_;

    TimingState timing_;
    std::array<uint8_t, 5> unitCount_{}; ///< units in use per class
    /// Commit cycle per ROB slot.  Never cleared: a slot is read only
    /// once robSize later instructions of the same run have written it.
    std::vector<uint64_t> robCommitCycle_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_MACHINE_H
