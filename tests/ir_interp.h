/**
 * @file
 * Reference interpreter for mpc IR.  Executes a Function directly on
 * 64-bit virtual registers and a sim::Memory, independent of the
 * compiler back end — the oracle for differential testing of the
 * whole pipeline (passes + register allocation + codegen + the
 * functional simulator).
 */

#ifndef BIOPERF5_TESTS_IR_INTERP_H
#define BIOPERF5_TESTS_IR_INTERP_H

#include <cstdint>
#include <vector>

#include "mpc/ir.h"
#include "sim/memory.h"

namespace bp5::mpc {

/** Outcome of interpreting a function. */
struct InterpResult
{
    int64_t value = 0;      ///< Ret operand (0 for bare ret)
    uint64_t steps = 0;     ///< IR instructions executed
    bool finished = false;  ///< false if the step limit was hit
};

/**
 * Interpret @p fn with @p args (bound to virtual registers 0..n-1),
 * reading and writing @p mem for Load/Store.
 * @param max_steps abort knob for runaway loops
 */
InterpResult interpret(const Function &fn,
                       const std::vector<int64_t> &args,
                       sim::Memory &mem,
                       uint64_t max_steps = 100'000'000);

} // namespace bp5::mpc

#endif // BIOPERF5_TESTS_IR_INTERP_H
