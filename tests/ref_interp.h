/**
 * @file
 * Reference MiniPOWER interpreter for the tests.
 *
 * A decode-every-step switch over isa::Op, written separately from the
 * simulator's micro-op handlers (src/sim/exec.cc) so the differential
 * tests compare two independent copies of the ISA semantics.  It models
 * only what is architecturally visible: registers, CR/LR/CTR, memory,
 * console output, the exit code and the architectural counters
 * (instructions, opCount, branches, condBranches, takenBranches, loads,
 * stores).  No caches, predictors or cycles.
 */

#ifndef BIOPERF5_TESTS_REF_INTERP_H
#define BIOPERF5_TESTS_REF_INTERP_H

#include <cstdint>
#include <string>

#include "isa/encode.h"
#include "sim/core_state.h"
#include "sim/counters.h"
#include "sim/memory.h"

namespace bp5::testref {

/** Outcome of a reference run. */
struct RefResult
{
    sim::Counters counters; ///< architectural counters only
    bool halted = false;
    int64_t exitCode = 0;
    std::string console;
};

class RefInterp
{
  public:
    RefInterp(sim::CoreState &state, sim::Memory &mem)
        : state_(state), mem_(mem)
    {
    }

    /** Run from state.pc until SYS_EXIT or @p max instructions. */
    RefResult run(uint64_t max);

  private:
    /** Decode and execute the instruction at state.pc. */
    void step(RefResult &r);
    void syscall(RefResult &r);

    sim::CoreState &state_;
    sim::Memory &mem_;
};

} // namespace bp5::testref

#endif // BIOPERF5_TESTS_REF_INTERP_H
