/**
 * @file
 * Natural-loop detection over mpc IR with induction-variable and
 * trip-count analysis (DESIGN.md §4.9).  The loops themselves come from
 * the shared dominator/loop core (support/graph.h); this layer adds the
 * counted shape.  The kernels' loops are all rotated do-while loops
 * (`bdy: ...; iv += step; br cond iv, limit, bdy, exit`), which is the
 * shape the unroll pass (passes.h) consumes.  A multi-latch loop is
 * found but has no counted shape; a cycle with no dominating header
 * (an irreducible region) is not a natural loop and is not found.
 */

#ifndef BIOPERF5_MPC_LOOPS_H
#define BIOPERF5_MPC_LOOPS_H

#include <cstdint>
#include <vector>

#include "mpc/ir.h"
#include "support/graph.h"

namespace bp5::mpc {

/** One natural loop of a Function. */
struct IrLoop : support::NaturalLoop
{
    /** Rotated-counted-loop facts (valid when hasCountedShape). */
    bool hasCountedShape = false;
    VReg iv = kNoReg;      ///< the stepped register
    int64_t step = 0;      ///< per-iteration increment (> 0)
    VReg limit = kNoReg;   ///< loop-invariant bound register
    Cond cond = Cond::LE;  ///< continue while `iv cond limit`

    /** Body executions when init and limit are compile-time constants;
     *  -1 when unknown. */
    int64_t tripCount = -1;
};

/** Loop forest of a function. */
struct IrLoopForest
{
    std::vector<IrLoop> loops; ///< outermost-first per nest

    /** True if @p inner's blocks are a strict subset of @p outer's. */
    static bool nestedIn(const IrLoop &inner, const IrLoop &outer);
};

/** Find all natural loops of @p fn. */
IrLoopForest findLoops(const Function &fn);

} // namespace bp5::mpc

#endif // BIOPERF5_MPC_LOOPS_H
