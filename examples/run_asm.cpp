/**
 * @file
 * Standalone MiniPOWER runner: assemble a .s file and execute it on
 * the POWER5-class core model, printing the console output and the
 * performance counters.  The program must terminate with the exit
 * syscall (`li r0, 0` / `sc`); `li r0, 1..3` + `sc` print r3 as a
 * character, integer, or hex value.
 *
 * Usage:
 *   run_asm <file.s> [--functional] [--btac] [--fxu=N]
 *           [--taken-penalty=N] [--max-insts=N]
 *
 * With no file argument, a built-in demo program runs.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "masm/assembler.h"
#include "sim/machine.h"
#include "support/logging.h"

using namespace bp5;

namespace {

const char *kDemo = R"(
# Demo: print the first ten Fibonacci numbers.
        li r14, 0          # a
        li r15, 1          # b
        li r16, 10
        mtctr r16
loop:
        li r0, 2           # SYS_PUTINT
        mr r3, r14
        sc
        li r0, 1           # SYS_PUTC ' '
        li r3, 32
        sc
        add r17, r14, r15
        mr r14, r15
        mr r15, r17
        bdnz loop
        li r0, 1
        li r3, 10          # newline
        sc
        li r0, 0           # SYS_EXIT
        li r3, 0
        sc
)";

void
printCounters(const sim::Counters &c)
{
    std::printf("--- counters ---\n");
    std::printf("instructions : %llu\n",
                static_cast<unsigned long long>(c.instructions));
    if (c.cycles) {
        std::printf("cycles       : %llu  (IPC %.3f)\n",
                    static_cast<unsigned long long>(c.cycles), c.ipc());
    }
    std::printf("branches     : %llu (%.1f%% of instructions, "
                "%.1f%% taken)\n",
                static_cast<unsigned long long>(c.branches),
                100.0 * c.branchFraction(),
                100.0 * c.takenBranchFraction());
    std::printf("mispredicts  : %llu direction, %llu target\n",
                static_cast<unsigned long long>(c.mispredDirection),
                static_cast<unsigned long long>(c.mispredTarget));
    std::printf("loads/stores : %llu / %llu (L1D miss %.2f%%)\n",
                static_cast<unsigned long long>(c.loads),
                static_cast<unsigned long long>(c.stores),
                100.0 * c.l1dMissRate());
    if (c.btacPredictions) {
        std::printf("BTAC         : %llu predictions, %llu wrong\n",
                    static_cast<unsigned long long>(c.btacPredictions),
                    static_cast<unsigned long long>(c.btacMispredicts));
    }
}

/** Report a malformed numeric flag; returns the bad-argument status. */
int
badValue(const std::string &arg)
{
    std::fprintf(stderr, "bad value in '%s'\n", arg.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string source = kDemo;
    bool functional = false;
    uint64_t maxInsts = 200'000'000;
    sim::MachineConfig cfg;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--functional") {
            functional = true;
        } else if (a == "--btac") {
            cfg.btacEnabled = true;
        } else if (a.rfind("--fxu=", 0) == 0) {
            if (!parseNumber(a.substr(6), cfg.numFXU))
                return badValue(a);
        } else if (a.rfind("--taken-penalty=", 0) == 0) {
            if (!parseNumber(a.substr(16), cfg.takenBranchPenalty))
                return badValue(a);
        } else if (a.rfind("--max-insts=", 0) == 0) {
            if (!parseNumber(a.substr(12), maxInsts))
                return badValue(a);
        } else if (a == "--help" || a == "-h") {
            std::printf("usage: %s <file.s> [--functional] [--btac] "
                        "[--fxu=N] [--taken-penalty=N] "
                        "[--max-insts=N]\n",
                        argv[0]);
            return 0;
        } else {
            std::ifstream f(a);
            if (!f) {
                std::fprintf(stderr, "cannot open '%s'\n", a.c_str());
                return 1;
            }
            std::ostringstream ss;
            ss << f.rdbuf();
            source = ss.str();
        }
    }

    masm::Program prog;
    try {
        prog = masm::assemble(source, 0x10000);
    } catch (const masm::AsmError &e) {
        std::fprintf(stderr, "assembly error (line %d): %s\n", e.line,
                     e.message.c_str());
        return 1;
    }
    std::printf("assembled %zu bytes at 0x%llx\n", prog.size(),
                static_cast<unsigned long long>(prog.base));

    sim::Machine m(cfg);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    m.state().gpr[1] = 0x7f0000; // stack

    sim::RunResult r = functional ? m.runFunctional(maxInsts)
                                  : m.run(maxInsts);
    if (!r.console.empty())
        std::printf("--- console ---\n%s\n", r.console.c_str());
    if (!r.halted) {
        std::fprintf(stderr,
                     "program did not exit within %llu instructions\n",
                     static_cast<unsigned long long>(maxInsts));
        return 1;
    }
    std::printf("exit code %lld\n",
                static_cast<long long>(r.exitCode));
    printCounters(r.counters);
    return 0;
}
