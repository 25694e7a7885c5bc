/**
 * @file
 * mpc optimization passes.  The centerpiece is the if-conversion pass
 * of paper section IV-B: it rewrites control-flow hammocks (if-then and
 * if-then-else regions) into straight-line Select/Max IR, subject to a
 * safety analysis — loads may only be hoisted past the branch when
 * their `safe` bit is set, stores and divides never are.  This
 * reproduces gcc's behaviour on the BioPerf kernels: register-only
 * hammocks convert, array-reference hammocks are rejected.
 */

#ifndef BIOPERF5_MPC_PASSES_H
#define BIOPERF5_MPC_PASSES_H

#include "mpc/ir.h"

namespace bp5::mpc {

/** Outcome statistics of the if-conversion pass. */
struct IfConvertStats
{
    unsigned converted = 0;       ///< hammocks rewritten to selects
    unsigned mergedStores = 0;    ///< diamonds converted by store merging
    unsigned rejectedUnsafe = 0;  ///< blocked by unprovable loads/stores
    unsigned rejectedShape = 0;   ///< region not a hammock / too large
    unsigned rejectedPattern = 0; ///< not max/min-shaped (max-only mode)
};

/** If-conversion knobs. */
struct IfConvertOptions
{
    /**
     * When true, convert only hammocks that reduce to pure max/min
     * assignments (models the compiler's max pattern matcher); when
     * false, any safe hammock becomes isel-able selects.
     */
    bool onlyMaxPatterns = false;

    /**
     * Convert diamonds whose two arms both end in one store to the
     * *same* proven address (same base/index registers, neither
     * redefined inside the arms, same displacement and size): compute
     * both values, select, store once unconditionally.  Sound because
     * some store to that address executes on every path through the
     * diamond — this is what the "comp. spec" variant adds over
     * "comp. isel" on the Clustalw F-row and Hmmer insert-row
     * hammocks.
     */
    bool mergeStores = false;
    unsigned maxHammockInsts = 8; ///< side-block size limit
};

/**
 * Run if-conversion over @p fn.  Converted branch blocks become
 * unreachable; run removeUnreachableBlocks() afterwards.
 */
IfConvertStats ifConvert(Function &fn, const IfConvertOptions &opts);

/** Delete blocks not reachable from block 0. */
void removeUnreachableBlocks(Function &fn);

/**
 * Remove instructions without side effects whose destination register
 * is never used anywhere in the function (iterates to a fixpoint).
 * @return number of instructions removed.
 */
unsigned deadCodeElim(Function &fn);

/**
 * Classify a Select as a max/min idiom.
 * @return IrOp::Max, IrOp::Min, or IrOp::Select if neither.
 */
IrOp classifySelect(const IrInst &sel);

} // namespace bp5::mpc

#endif // BIOPERF5_MPC_PASSES_H
