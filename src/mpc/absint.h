/**
 * @file
 * IR-level abstract interpretation for the mpc pipeline (DESIGN.md
 * §4.9): must-accessed addresses.  A forward intersection dataflow
 * whose facts are canonical address expressions (base vreg + index
 * vreg + displacement, size) that were loaded or stored on *every*
 * path to a program point, with facts killed when a named register is
 * redefined.  If an address was dereferenced on every path already,
 * dereferencing it again cannot fault — this is the dominating-access
 * argument compilers use to speculate loads.
 *
 * proveSafeLoads() applies the analysis to set the `safe` bit on every
 * load it can prove, replacing the hand-written annotations the
 * if-converter previously had to trust.
 */

#ifndef BIOPERF5_MPC_ABSINT_H
#define BIOPERF5_MPC_ABSINT_H

#include <cstdint>
#include <vector>

#include "mpc/ir.h"

namespace bp5::mpc {

/** A canonical address expression: base + index + disp, @p size bytes
 *  proven dereferenceable.  Register order is normalized so (a, b) and
 *  (b, a) compare equal. */
struct AddrFact
{
    VReg base = kNoReg;
    VReg index = kNoReg; ///< kNoReg when absent
    int64_t disp = 0;
    unsigned size = 0;

    bool operator<(const AddrFact &o) const
    {
        if (base != o.base)
            return base < o.base;
        if (index != o.index)
            return index < o.index;
        return disp < o.disp;
    }
    bool operator==(const AddrFact &o) const
    {
        return base == o.base && index == o.index && disp == o.disp &&
               size == o.size;
    }
    bool
    sameAddress(const AddrFact &o) const
    {
        return base == o.base && index == o.index && disp == o.disp;
    }
};

/** Canonical fact for a Load/Store instruction. */
AddrFact addrFactOf(const IrInst &i);

/** Sorted fact set per block entry; a block that intersects nothing
 *  yet (unvisited in the must-dataflow) is conceptually "all facts". */
struct MustAccess
{
    std::vector<std::vector<AddrFact>> in;

    /**
     * True when accessing @p size bytes at @p f is covered by the
     * facts in @p set: some fact with the same base+index spans
     * [f.disp, f.disp + size).
     */
    static bool covered(const std::vector<AddrFact> &set,
                        const AddrFact &f, unsigned size);
};

MustAccess mustAccessedAddresses(const Function &fn);

/** Outcome of the safety pre-pass. */
struct ProveStats
{
    unsigned candidates = 0;   ///< loads examined
    unsigned alreadySafe = 0;  ///< annotated safe before the pass
    unsigned proved = 0;       ///< safe bits newly set by the proof
};

/**
 * Set `safe` on every load whose address is must-accessed at its own
 * program point.  Sound by the dominating-access argument; never
 * clears an existing annotation.
 */
ProveStats proveSafeLoads(Function &fn);

} // namespace bp5::mpc

#endif // BIOPERF5_MPC_ABSINT_H
