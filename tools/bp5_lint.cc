/**
 * @file
 * bp5-lint: binary-level static analyzer for MiniPOWER programs.
 *
 * Usage:
 *   bp5-lint [options] file.masm ...     lint assembly source files
 *   bp5-lint [options] --kernels         lint every compiled BioPerf
 *                                        kernel in every code variant
 *
 * Options:
 *   --json       emit one JSON Lines record per program instead of text
 *   --pedantic   also warn about dead GPR definitions, unprovable
 *                memory accesses and statically-infinite loops; any
 *                warning then fails the run
 *   --cfg        dump the reconstructed CFG of each program
 *   --loops      dump the natural-loop analysis of each program
 *   --classify   print the static branch-class table of each program
 *   --base=N     load address for .masm files (default 0x10000)
 *   --region=B:S declare a valid data region (base:size, repeatable)
 *
 * Exit status: 0 when no program has lint errors (and, under
 * --pedantic, no warnings either), 1 otherwise, 2 on usage or input
 * errors.
 */

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/branch_class.h"
#include "analysis/lint.h"
#include "analysis/loops.h"
#include "kernels/kernels.h"
#include "support/logging.h"
#include "support/result.h"

using namespace bp5;

namespace {

struct Options
{
    bool json = false;
    bool pedantic = false;
    bool dumpCfg = false;
    bool dumpLoops = false;
    bool classify = false;
    bool kernels = false;
    uint64_t base = 0x10000;
    std::vector<analysis::MemRegion> regions;
    std::vector<std::string> files;
};

void
usage()
{
    std::fputs(
        "usage: bp5-lint [--json] [--pedantic] [--cfg] [--loops]\n"
        "                [--classify] [--base=ADDR] [--region=BASE:SIZE]\n"
        "                (file.masm ... | --kernels)\n",
        stderr);
}

/** Report a malformed numeric flag; returns the bad-argument status. */
int
badValue(const std::string &arg)
{
    std::fprintf(stderr, "bp5-lint: bad value in '%s'\n", arg.c_str());
    return 2;
}

/** Lint one named program; returns the report (caller aggregates). */
analysis::LintReport
lintOne(const std::string &name, const masm::Program &prog,
        const Options &opts)
{
    analysis::Cfg cfg =
        analysis::buildCfg(analysis::CodeImage::fromProgram(prog));
    analysis::LintOptions lo;
    lo.pedantic = opts.pedantic;
    lo.regions = opts.regions;
    analysis::LintReport report = analysis::lint(cfg, lo);

    if (opts.dumpCfg)
        std::fputs(cfg.dump().c_str(), stdout);
    if (opts.dumpLoops)
        std::fputs(analysis::findCfgLoops(cfg).dump(cfg).c_str(), stdout);

    if (opts.json) {
        std::fputs(
            support::emitJsonLine(report.toRows(name), "lint:" + name)
                .c_str(),
            stdout);
    } else if (!report.clean()) {
        std::fputs(report.toText(name).c_str(), stdout);
    } else {
        std::printf("%s: clean (%zu instructions, %zu blocks)\n",
                    name.c_str(), cfg.numInsts(), cfg.blocks.size());
    }

    if (opts.classify) {
        auto sites = analysis::classifyBranches(cfg);
        std::vector<support::ResultRow> rows;
        for (const auto &s : sites) {
            support::ResultRow row;
            row.set("pc", strprintf("0x%llx", (unsigned long long)s.pc));
            row.set("class", analysis::branchClassName(s.klass));
            row.set("disasm", s.disasm);
            if (!s.detail.empty())
                row.set("detail", s.detail);
            rows.push_back(std::move(row));
        }
        std::string title = "branches:" + name;
        std::fputs(opts.json ? support::emitJsonLine(rows, title).c_str()
                             : support::emitText(rows, title).c_str(),
                   stdout);
    }
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--pedantic") {
            opts.pedantic = true;
        } else if (arg == "--cfg") {
            opts.dumpCfg = true;
        } else if (arg == "--loops") {
            opts.dumpLoops = true;
        } else if (arg.rfind("--region=", 0) == 0) {
            std::string spec = arg.substr(9);
            size_t colon = spec.find(':');
            if (colon == std::string::npos) {
                usage();
                return 2;
            }
            analysis::MemRegion r;
            if (!parseNumber(spec.substr(0, colon), r.base, 0) ||
                !parseNumber(spec.substr(colon + 1), r.size, 0))
                return badValue(arg);
            r.name = spec;
            opts.regions.push_back(std::move(r));
        } else if (arg == "--classify") {
            opts.classify = true;
        } else if (arg == "--kernels") {
            opts.kernels = true;
        } else if (arg.rfind("--base=", 0) == 0) {
            if (!parseNumber(arg.substr(7), opts.base, 0))
                return badValue(arg);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            usage();
            return 2;
        } else {
            opts.files.push_back(arg);
        }
    }
    if (opts.files.empty() && !opts.kernels) {
        usage();
        return 2;
    }

    unsigned errors = 0;
    unsigned warnings = 0;

    for (const std::string &path : opts.files) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "bp5-lint: cannot open %s\n", path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        try {
            masm::Program prog = masm::assemble(text.str(), opts.base);
            analysis::LintReport report = lintOne(path, prog, opts);
            errors += report.errors();
            warnings += report.warnings();
        } catch (const masm::AsmError &e) {
            std::fprintf(stderr, "bp5-lint: %s:%d: %s\n", path.c_str(),
                         e.line, e.message.c_str());
            return 2;
        }
    }

    if (opts.kernels) {
        for (unsigned k = 0;
             k < unsigned(kernels::KernelKind::NUM_KERNELS); ++k) {
            for (unsigned v = 0; v < unsigned(mpc::Variant::NUM_VARIANTS);
                 ++v) {
                auto kind = kernels::KernelKind(k);
                auto variant = mpc::Variant(v);
                mpc::Compiled compiled =
                    kernels::compileKernel(kind, variant);
                std::string name =
                    strprintf("%s/%s", kernels::kernelName(kind),
                              mpc::variantName(variant));
                analysis::LintReport report =
                    lintOne(name, compiled.program(kernels::kCodeBase),
                            opts);
                errors += report.errors();
                warnings += report.warnings();
            }
        }
    }

    // Contract: errors always fail; warnings fail only when the caller
    // opted into the pedantic checks.
    return errors || (opts.pedantic && warnings) ? 1 : 0;
}
