/**
 * @file
 * Binary-level abstract interpretation over the reconstructed CFG
 * (DESIGN.md §4.9).  For every reachable program point the analysis
 * tracks, per GPR, an abstract value = (provenance, interval):
 *
 *   provenance  Bottom < Const < Num < Ptr
 *
 *     Const — derived exclusively from instruction immediates; the
 *             interval is exact up to widening.
 *     Num   — a computed non-pointer quantity (sub-8-byte load,
 *             arithmetic on unknowns, masked/scaled values).
 *     Ptr   — possibly derived from an entry-ABI pointer register or
 *             an 8-byte load; assumed to address valid memory.
 *
 * Every reachable load/store is then classified (MemClass).  The
 * asymmetry is deliberate: *errors* are only reported for addresses of
 * Const provenance, where the analysis has modelled every contributing
 * instruction exactly, while Ptr addresses are trusted and Num
 * addresses degrade to a pedantic "unprovable" warning.  This is what
 * lets the lint layer promise that an out-of-bounds or misalignment
 * error is a definite bug, never a heuristic guess.
 */

#ifndef BIOPERF5_ANALYSIS_ABSINT_H
#define BIOPERF5_ANALYSIS_ABSINT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/interval.h"

namespace bp5::analysis {

/** Provenance lattice; join is max. */
enum class Prov : uint8_t
{
    Bottom, ///< no value on any path (undefined register)
    Const,  ///< built from immediates only; interval is trustworthy
    Num,    ///< computed non-pointer data
    Ptr,    ///< may be an ABI pointer / loaded 64-bit address
};

const char *provName(Prov p);

/** One abstract register value. */
struct AbsVal
{
    Prov prov = Prov::Bottom;
    Interval range = Interval::bottom();

    static AbsVal constant(int64_t v)
    {
        return {Prov::Const, Interval::point(v)};
    }
    static AbsVal num(Interval r) { return {Prov::Num, r}; }
    static AbsVal numTop() { return {Prov::Num, Interval::top()}; }
    static AbsVal ptrTop() { return {Prov::Ptr, Interval::top()}; }

    bool operator==(const AbsVal &o) const
    {
        return prov == o.prov && range == o.range;
    }

    AbsVal joined(const AbsVal &o) const
    {
        if (prov == Prov::Bottom)
            return o;
        if (o.prov == Prov::Bottom)
            return *this;
        return {std::max(prov, o.prov), range.join(o.range)};
    }

    /** Widen bounds that moved since @p prev (same-shaped join input). */
    AbsVal widenedFrom(const AbsVal &prev) const
    {
        if (prev.prov == Prov::Bottom || prov == Prov::Bottom)
            return *this;
        return {prov, range.widenedFrom(prev.range)};
    }

    std::string str() const;
};

/** A declared valid data region (for memory classification). */
struct MemRegion
{
    uint64_t base = 0;
    uint64_t size = 0;
    std::string name;

    bool
    containsRange(uint64_t lo, uint64_t hi) const ///< [lo, hi] inclusive
    {
        return lo >= base && hi >= lo && hi < base + size;
    }
};

/** What the analysis can say about one memory access. */
enum class MemClass
{
    InBounds,    ///< provably inside a declared region
    OutOfBounds, ///< provably invalid (null page, no region covers it)
    RegionRel,   ///< relative to a trusted pointer; assumed valid
    Unknown,     ///< computed address nothing vouches for
};

/** One classified load/store. */
struct MemAccess
{
    uint64_t pc = 0;
    bool isStore = false;
    unsigned size = 0;   ///< access width in bytes
    AbsVal ea;           ///< abstract effective address
    MemClass cls = MemClass::Unknown;
    bool misaligned = false; ///< ea is a singleton and ea % size != 0
};

/** Analysis result: per-block-entry register state + access table. */
struct ValueAnalysis
{
    /** Abstract GPR state at block entry, indexed [BasicBlock::id]. */
    std::vector<std::array<AbsVal, 32>> in;

    /** Every reachable load/store, in address order. */
    std::vector<MemAccess> accesses;
};

/**
 * Run the interval/provenance analysis to fixpoint and classify every
 * memory access.  Entry registers in @p entry_defined start at Ptr-top
 * (r0, which the ABI only defines as a scratch/nop operand, starts as
 * Num); everything else starts at Bottom.
 */
ValueAnalysis analyzeValues(const Cfg &cfg,
                            RegSet entry_defined,
                            const std::vector<MemRegion> &regions = {});

/** Access width in bytes of a load/store opcode (0 for others). */
unsigned memAccessSize(isa::Op op);

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_ABSINT_H
