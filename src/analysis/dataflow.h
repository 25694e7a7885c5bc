/**
 * @file
 * Dataflow analyses over the reconstructed CFG.  All passes operate on
 * the isa dependency-register space (GPRs 0-31, CR fields 32-39, LR,
 * CTR — see isa::DepReg), so one 64-bit word holds a full register set
 * and the transfer functions are plain bit operations.
 *
 * Three classic analyses are provided:
 *
 *  - possibly-defined registers (forward, union): a read of a register
 *    outside this set is a definite use-before-def on *every* path,
 *    which is what the lint layer reports as an error;
 *  - live registers (backward, union): feeds dead-definition warnings;
 *  - reaching definitions (forward, union, per-definition-site): gives
 *    use-def chains, which the branch classifier walks to find the
 *    compare feeding each conditional branch.
 */

#ifndef BIOPERF5_ANALYSIS_DATAFLOW_H
#define BIOPERF5_ANALYSIS_DATAFLOW_H

#include <cstdint>
#include <vector>

#include "analysis/cfg.h"
#include "isa/isa.h"

namespace bp5::analysis {

/** Bitset over the isa::DepReg name space (42 names < 64 bits). */
using RegSet = uint64_t;

constexpr RegSet
regBit(unsigned dep)
{
    return RegSet{1} << dep;
}

/** Registers defined at program entry under the kernel ABI:
 *  r0 (nop reads it), r1 (stack pointer), r3-r10 (arguments), LR. */
RegSet abiEntryDefined();

/** Render a dependency name ("r5", "cr2", "lr", "ctr"). */
std::string depRegName(unsigned dep);

/** Render a register set as a comma-separated list. */
std::string regSetNames(RegSet set);

/** Uses and defs of one instruction in the DepReg space.  Beyond
 *  isa::srcDeps, syscalls read r0 (selector) and r3 (payload). */
struct DefUse
{
    RegSet uses = 0;
    RegSet defs = 0;
};

DefUse defUse(const isa::Inst &inst);

/** Per-block IN/OUT sets of a bitset dataflow problem, indexed by
 *  BasicBlock::id. */
struct BlockSets
{
    std::vector<RegSet> in;
    std::vector<RegSet> out;
};

/**
 * Forward may-analysis: possiblyDefined.in[b] is the set of registers
 * written on at least one path from the entry to the top of @p b.
 * The complement is "provably never written yet".
 */
BlockSets possiblyDefined(const Cfg &cfg, RegSet entry_defined);

/**
 * Backward may-analysis: liveness.out[b] is the set of registers whose
 * current value may still be read after the end of @p b.  Return and
 * exit blocks are given {r3} (result / exit payload) as boundary
 * liveness.
 */
BlockSets liveness(const Cfg &cfg);

/** One static definition site. */
struct DefSite
{
    int block = -1;     ///< BasicBlock::id
    unsigned idx = 0;   ///< instruction index within the block
    uint64_t pc = 0;
    unsigned reg = 0;   ///< DepReg name being defined
};

/**
 * Reaching definitions with use-def chain queries.  Definition sites
 * are numbered globally; block IN/OUT sets are bitvectors over them.
 * A pseudo-definition at the entry represents each ABI-defined
 * register (DefSite with block == -1).
 */
class ReachingDefs
{
  public:
    ReachingDefs(const Cfg &cfg, RegSet entry_defined);

    /** All definitions of @p reg that reach the *input* of the
     *  instruction at @p block / @p idx.  Entry pseudo-defs appear as
     *  DefSite{block: -1}. */
    std::vector<DefSite> reaching(int block, unsigned idx,
                                  unsigned reg) const;

    /** Definitions reaching the given use, located by pc. */
    std::vector<DefSite> reachingAt(uint64_t pc, unsigned reg) const;

  private:
    using BitVec = std::vector<uint64_t>;

    void replayTo(int block, unsigned idx, BitVec &vec) const;

    const Cfg &cfg_;
    std::vector<DefSite> sites_;         ///< real sites, then pseudo
    size_t numRealSites_ = 0;
    std::vector<std::vector<unsigned>> sitesOfReg_; ///< per DepReg
    std::vector<BitVec> in_;             ///< per block
    size_t words_ = 0;
};

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_DATAFLOW_H
