/**
 * @file
 * Natural-loop detection over the reconstructed binary CFG (DESIGN.md
 * §4.9).  Loop bodies and exit edges come from the shared
 * dominator/loop core (support/graph.h); this layer adds, for the two
 * counted-loop idioms MiniPOWER code actually uses, induction variable
 * and trip-count recovery:
 *
 *  - CTR loops: `mtctr rk` outside, `bdnz header` as the latch.  When
 *    the mtctr operand is a known constant the trip count is exact.
 *  - GPR loops: a single `addi iv, iv, step` in the body and a latch
 *    `cmpi; bc` testing iv against an immediate bound.  When every
 *    definition of iv reaching the header from outside is the same
 *    `li`, the trip count follows from (init, step, bound, cond).
 *
 * A loop with no exit edge, and no body block that may leave it
 * without one (a return, an indirect branch or an `sc` that may exit),
 * is statically infinite; the lint layer reports it (pedantically —
 * deliberate spin loops exist).
 */

#ifndef BIOPERF5_ANALYSIS_LOOPS_H
#define BIOPERF5_ANALYSIS_LOOPS_H

#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "support/graph.h"

namespace bp5::analysis {

/** One natural loop of the binary CFG (node ids are BasicBlock::id). */
struct BinLoop : support::NaturalLoop
{
    /** Some body block may leave the loop without a CFG edge: it ends
     *  in a return, an indirect branch or an `sc` that may exit. */
    bool mayEscape = false;

    /** No path leaves the loop: statically infinite. */
    bool infinite() const { return exits.empty() && !mayEscape; }

    // Counted-loop shape (valid when counted is true).
    bool counted = false;
    bool viaCtr = false;   ///< bdnz idiom rather than a GPR IV
    unsigned ivReg = 0;    ///< GPR induction variable (GPR loops)
    int64_t step = 0;      ///< per-iteration increment (GPR loops)
    int64_t init = 0;      ///< IV value entering the loop, if known
    int64_t bound = 0;     ///< immediate compared against (GPR loops)
    int64_t tripCount = -1; ///< exact iterations, -1 when unknown
};

/** All natural loops of one CFG. */
struct BinLoopForest
{
    std::vector<BinLoop> loops; ///< sorted outermost-first

    std::string dump(const Cfg &cfg) const;
};

/** Find every natural loop and analyze the counted shapes. */
BinLoopForest findCfgLoops(const Cfg &cfg);

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_LOOPS_H
