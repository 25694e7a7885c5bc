/**
 * @file
 * mpc compilation pipeline and the paper's code-generation variants.
 *
 * Fig 3 / Table II of the paper compare five builds of each kernel:
 *
 *   Original   — conditional statements compiled to cmp + branch.
 *   hand isel  — Selects placed by a human at the known max() sites,
 *                lowered to cmp+isel.
 *   hand max   — the same sites lowered to the new max instruction.
 *   comp. isel — the branchy build run through if-conversion; every
 *                provably-safe hammock becomes cmp+isel.
 *   comp. max  — if-conversion restricted to gcc's max/min pattern
 *                matcher.
 *   Combination— hand max sites plus compiler isel for the rest.
 *
 * A kernel supplies two IR builders (branchy and hand-annotated); the
 * variant selects the builder and the pass/codegen options.
 */

#ifndef BIOPERF5_MPC_COMPILER_H
#define BIOPERF5_MPC_COMPILER_H

#include <string>
#include <vector>

#include "isa/inst.h"
#include "masm/assembler.h"
#include "mpc/absint.h"
#include "mpc/codegen.h"
#include "mpc/ir.h"
#include "mpc/passes.h"

namespace bp5::mpc {

/** Pipeline options. */
struct CompileOptions
{
    bool ifConvert = false;

    /**
     * Run the abstract-interpretation safety pre-pass (absint.h)
     * before if-conversion: loads whose address is must-accessed at
     * their own program point get their `safe` bit proven rather than
     * trusted from the builder's annotation.
     */
    bool proveSafe = false;
    IfConvertOptions ifcOpts;
    CodegenOptions cg;
};

/** Everything produced by a compilation. */
struct Compiled
{
    std::vector<isa::Inst> insts;
    IfConvertStats ifc;
    ProveStats prove;
    CodegenStats cg;

    /** Assemble at @p base into a loadable program image. */
    masm::Program program(uint64_t base = 0x10000) const;
};

/** Run passes and lower @p fn (taken by value; passes mutate it). */
Compiled compile(Function fn, const CompileOptions &opts);

/** The paper's code variants (Fig 3, Table II) plus "comp. spec",
 *  this repo's analysis-driven extension of "comp. isel". */
enum class Variant
{
    Baseline,  ///< "Original"
    HandIsel,
    HandMax,
    CompIsel,
    CompMax,
    Combination,
    CompSpec,  ///< "comp. spec": proven-safe speculation + store merge
    NUM_VARIANTS,
};

/** Short display name matching the paper's figure labels. */
const char *variantName(Variant v);

/** True if the variant compiles the hand-annotated IR builder. */
bool variantUsesHandIr(Variant v);

/** Pipeline options implementing @p v. */
CompileOptions optionsFor(Variant v);

} // namespace bp5::mpc

#endif // BIOPERF5_MPC_COMPILER_H
