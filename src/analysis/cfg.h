/**
 * @file
 * Binary-level control-flow-graph reconstruction for MiniPOWER
 * programs.  The analyzer consumes the same artifact the simulator
 * loads — an assembled Program image — decodes it with the isa layer,
 * and rebuilds basic blocks and edges by recursive traversal from the
 * entry point.  Everything downstream (dataflow, lint, branch
 * classification) runs on this CFG, so the analysis sees exactly the
 * instruction stream the machine will execute, not the compiler's IR.
 */

#ifndef BIOPERF5_ANALYSIS_CFG_H
#define BIOPERF5_ANALYSIS_CFG_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/disasm.h"
#include "isa/inst.h"
#include "masm/assembler.h"

namespace bp5::analysis {

/** A loadable program image viewed as instruction words. */
struct CodeImage
{
    uint64_t base = 0;
    uint64_t entry = 0;
    std::vector<uint8_t> bytes;
    std::unordered_map<std::string, uint64_t> symbols;

    /** Wrap an assembled program; @p entry_addr 0 means the base. */
    static CodeImage fromProgram(const masm::Program &prog,
                                 uint64_t entry_addr = 0);

    uint64_t end() const { return base + bytes.size(); }
    bool contains(uint64_t pc) const { return pc >= base && pc + 4 <= end(); }

    /** Little-endian instruction word at @p pc (must be contained). */
    uint32_t word(uint64_t pc) const;

    /** Label defined at @p addr, or "" if none. */
    std::string labelAt(uint64_t addr) const;

    /** Symbol resolver for the disassembler. */
    isa::SymbolResolver resolver() const;
};

/** One decoded instruction with its address. */
struct CfgInst
{
    uint64_t pc = 0;
    isa::Inst inst;
};

/** A basic block of the reconstructed CFG. */
struct BasicBlock
{
    int id = -1;
    uint64_t start = 0;
    std::vector<CfgInst> insts;
    std::vector<int> succs;
    std::vector<int> preds;

    bool indirectSucc = false; ///< ends in bcctr (statically unknown)
    bool isReturn = false;     ///< ends in blr
    bool isExit = false;       ///< ends in a proven exit syscall

    uint64_t endPc() const { return start + 4 * insts.size(); }
    const CfgInst &last() const { return insts.back(); }
};

/** Anomalies found while reconstructing the CFG (lint turns these
 *  into diagnostics with context). */
struct CfgIssue
{
    enum Kind
    {
        InvalidInstruction,  ///< reachable word does not decode
        BranchTargetOutside, ///< branch target not in the image
        BranchTargetUnaligned,
        FallOffEnd,          ///< fall-through past the last image byte
        MaybeFallOffEnd,     ///< sc with unprovable selector at the end
    };

    Kind kind;
    uint64_t pc = 0;     ///< offending instruction
    uint64_t target = 0; ///< branch target / fall-through address
    uint64_t from = 0;   ///< discovering predecessor (InvalidInstruction)
};

/** The reconstructed control-flow graph. */
struct Cfg
{
    CodeImage image;
    std::vector<BasicBlock> blocks; ///< sorted by start address
    int entryBlock = -1;            ///< -1 when the entry is undecodable
    std::vector<CfgIssue> issues;

    /** Block whose range contains @p pc, or nullptr. */
    const BasicBlock *blockAt(uint64_t pc) const;

    /**
     * Maximal runs of addresses that decode to valid instructions but
     * are unreachable from the entry, as (start, instruction count)
     * pairs.  Data regions that happen to decode are indistinguishable
     * from dead code, so lint reports these as warnings.
     */
    std::vector<std::pair<uint64_t, unsigned>> unreachableRuns() const;

    /** Number of instructions across all (reachable) blocks. */
    size_t numInsts() const;

    /** Human-readable listing with block boundaries and edges. */
    std::string dump() const;
};

/**
 * Reconstruct the CFG of @p image by traversal from its entry point.
 * Never fails: decode and flow anomalies are recorded as issues and
 * the affected paths are truncated.
 */
Cfg buildCfg(const CodeImage &image);

/**
 * The exit-syscall heuristic used by the traversal, exposed for the
 * lint layer: an `sc` halts when a dominating `li r0, 0` a few
 * instructions back selects SYS_EXIT.  @return 0 = proven exit,
 * 1 = proven service call (falls through), -1 = unknown selector.
 */
int classifySyscall(const CodeImage &image, uint64_t sc_pc);

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_CFG_H
