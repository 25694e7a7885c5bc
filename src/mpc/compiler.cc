#include "mpc/compiler.h"

#include "support/logging.h"

namespace bp5::mpc {

masm::Program
Compiled::program(uint64_t base) const
{
    return masm::assemble(insts, base);
}

Compiled
compile(Function fn, const CompileOptions &opts)
{
    fn.verify();
    Compiled out;
    if (opts.proveSafe)
        out.prove = proveSafeLoads(fn);
    if (opts.ifConvert) {
        out.ifc = ifConvert(fn, opts.ifcOpts);
        removeUnreachableBlocks(fn);
    }
    deadCodeElim(fn);
    fn.verify();
    LoweredFunction lf = lower(fn, opts.cg);
    out.insts = std::move(lf.insts);
    out.cg = lf.stats;
    return out;
}

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Baseline: return "Original";
      case Variant::HandIsel: return "hand isel";
      case Variant::HandMax: return "hand max";
      case Variant::CompIsel: return "comp. isel";
      case Variant::CompMax: return "comp. max";
      case Variant::Combination: return "Combination";
      case Variant::CompSpec: return "comp. spec";
      default: return "?";
    }
}

bool
variantUsesHandIr(Variant v)
{
    return v == Variant::HandIsel || v == Variant::HandMax ||
           v == Variant::Combination;
}

CompileOptions
optionsFor(Variant v)
{
    CompileOptions o;
    switch (v) {
      case Variant::Baseline:
        break;
      case Variant::HandIsel:
        o.cg.emitIsel = true;
        break;
      case Variant::HandMax:
        o.cg.emitMax = true;
        o.cg.emitIsel = true; // non-max selects still need isel
        break;
      case Variant::CompIsel:
        o.ifConvert = true;
        o.cg.emitIsel = true;
        break;
      case Variant::CompMax:
        o.ifConvert = true;
        o.ifcOpts.onlyMaxPatterns = true;
        o.cg.emitMax = true;
        break;
      case Variant::Combination:
        o.ifConvert = true;
        o.cg.emitMax = true;
        o.cg.emitIsel = true;
        break;
      case Variant::CompSpec:
        o.ifConvert = true;
        o.proveSafe = true;
        o.ifcOpts.mergeStores = true;
        o.cg.emitIsel = true;
        break;
      default:
        panic("bad variant");
    }
    return o;
}

} // namespace bp5::mpc
