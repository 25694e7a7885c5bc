/**
 * @file
 * Shared helpers for the experiment-reproduction binaries: CLI
 * parsing (--klass=A|B|C --budget=N --seed=N), the paper's published
 * numbers, and common run helpers.
 *
 * Every binary regenerates one table or figure of the paper and
 * prints the measured values next to the published ones.  Absolute
 * numbers are not expected to match (the substrate is a from-scratch
 * simulator, not the authors' OpenPower 720 + SystemSim); the shapes
 * are what must hold.  See EXPERIMENTS.md.
 */

#ifndef BIOPERF5_BENCH_BENCH_UTIL_H
#define BIOPERF5_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "support/logging.h"
#include "support/result.h"
#include "workloads/workload.h"

namespace bp5::bench {

/** Common CLI options for the reproduction binaries. */
struct BenchOptions
{
    workloads::InputClass klass = workloads::InputClass::B;
    uint64_t budget = 3'000'000;
    uint64_t seed = 42;
    unsigned threads = 0; ///< sweep worker count; 0 = hardware
    bool json = false;    ///< emit result tables as JSON
    bool analyze = false; ///< join static branch classes with the PMU
    bool cpi = false;     ///< append CPI-stack share columns
    std::string manifest; ///< run-manifest path ("-" = stdout, "" = off)
    std::string pmuCsv;   ///< write the PMU interval series here

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions o;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto val = [&](const char *prefix) -> const char * {
                size_t n = std::strlen(prefix);
                return a.compare(0, n, prefix) == 0 ? a.c_str() + n
                                                    : nullptr;
            };
            auto num = [&](const char *v, auto &out) {
                if (!parseNumber(v, out)) {
                    std::fprintf(stderr, "bad value in '%s'\n", a.c_str());
                    std::exit(1);
                }
            };
            if (const char *v = val("--klass=")) {
                o.klass = workloads::inputClassFromString(v);
            } else if (const char *v = val("--budget=")) {
                num(v, o.budget);
            } else if (const char *v = val("--seed=")) {
                num(v, o.seed);
            } else if (const char *v = val("--threads=")) {
                num(v, o.threads);
            } else if (a == "--json") {
                o.json = true;
            } else if (a == "--analyze") {
                o.analyze = true;
            } else if (a == "--cpi") {
                o.cpi = true;
            } else if (const char *v = val("--manifest=")) {
                o.manifest = v;
            } else if (const char *v = val("--pmu-csv=")) {
                o.pmuCsv = v;
            } else if (a == "--help" || a == "-h") {
                std::printf("usage: %s [--klass=A|B|C] [--budget=N] "
                            "[--seed=N] [--threads=N] [--json] "
                            "[--analyze] [--cpi] [--manifest=PATH] "
                            "[--pmu-csv=PATH]\n",
                            argv[0]);
                std::exit(0);
            } else {
                std::fprintf(stderr, "unknown option '%s'\n",
                             a.c_str());
                std::exit(1);
            }
        }
        return o;
    }

    /** The sweep driver configured from --threads / --manifest. */
    driver::ExperimentDriver
    driver() const
    {
        driver::ExperimentDriver d(threads);
        if (!manifest.empty())
            d.setManifestPath(manifest);
        return d;
    }

    /**
     * Print one result-row table honouring --json: an aligned-text
     * table normally, one JSON Lines record (`{"title":..,"rows":..}`)
     * per table under --json so stdout stays machine-parseable.
     */
    void
    emit(const std::vector<support::ResultRow> &rows,
         const std::string &title = "") const
    {
        std::string out = json ? support::emitJsonLine(rows, title)
                               : support::emitText(rows, title);
        std::fputs(out.c_str(), stdout);
    }

    /**
     * printf for the human-facing prose around the tables (headers,
     * derived findings).  Suppressed under --json, where stdout
     * carries only JSON Lines records.
     */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    void
    note(const char *fmt, ...) const
    {
        if (json)
            return;
        va_list ap;
        va_start(ap, fmt);
        std::vprintf(fmt, ap);
        va_end(ap);
    }

    workloads::WorkloadConfig
    workload(workloads::App app) const
    {
        workloads::WorkloadConfig wc;
        wc.app = app;
        wc.klass = klass;
        wc.seed = seed;
        wc.simInstructionBudget = budget;
        return wc;
    }

    /** Build one sweep point for app/variant/machine. */
    driver::GridPoint
    point(workloads::App app, mpc::Variant var,
          const sim::MachineConfig &mc, std::string label = "") const
    {
        driver::GridPoint p;
        p.label = std::move(label);
        p.workload = workload(app);
        p.variant = var;
        p.machine = mc;
        return p;
    }
};

/** The four applications in the paper's table order. */
constexpr workloads::App kApps[4] = {
    workloads::App::Blast,
    workloads::App::Clustalw,
    workloads::App::Fasta,
    workloads::App::Hmmer,
};

/** Paper Table I (baseline POWER5 hardware counters). */
struct PaperTable1Row
{
    const char *app;
    double ipc;
    double l1dMissPct;
    double dirSharePct;
    double fxuStallPct;
};

constexpr PaperTable1Row kPaperTable1[4] = {
    {"Blast", 0.9, 3.9, 99.98, 14.9},
    {"Clustalw", 1.1, 0.1, 99.8, 25.3},
    {"Fasta", 0.8, 1.3, 99.8, 14.3},
    {"Hmmer", 1.0, 1.5, 96.8, 5.7},
};

/** Paper section VI-A hand-inserted IPC improvements (percent). */
struct PaperFig3Row
{
    const char *app;
    double handIselPct; ///< -1 when the paper gives no number
    double handMaxPct;
};

constexpr PaperFig3Row kPaperFig3[4] = {
    {"Blast", -1.0, -1.0}, // "a smaller improvement"
    {"Clustalw", 50.7, 58.0},
    {"Fasta", 23.1, 34.2},
    {"Hmmer", 32.0, 32.0},
};

/** Paper Table II rows (variant order as printed by variantName). */
struct PaperTable2Row
{
    const char *app;
    // Indexed by mpc::Variant (Baseline..CompMax); Combination absent.
    double branchesPct[5];
    double mispredictPct[5];
    double takenPct[5];
};

// Variant index mapping: 0 Original, 1 hand isel, 2 hand max,
// 3 comp isel, 4 comp max.
constexpr PaperTable2Row kPaperTable2[4] = {
    {"Blast",
     {20.7, 15.3, 16.2, 12.9, 14.4},
     {6.1, 5.7, 5.9, 4.2, 5.6},
     {67.4, 65.7, 65.1, 52.3, 66.0}},
    {"Clustalw",
     {14.6, 7.4, 8.1, 7.2, 8.9},
     {5.7, 2.6, 2.7, 8.0, 7.0},
     {69.6, 85.5, 84.5, 85.2, 82.6}},
    {"Fasta",
     {25.9, 23.2, 22.3, 19.2, 18.0},
     {7.9, 7.8, 7.5, 7.9, 7.4},
     {69.0, 75.6, 73.6, 74.2, 76.2}},
    {"Hmmer",
     {13.8, 7.9, 8.3, 12.0, 11.7},
     {5.7, 4.4, 4.7, 6.2, 6.1},
     {71.7, 62.6, 63.2, 71.3, 65.2}},
};

/** Paper Fig 6: baseline and fully-enhanced IPC. */
struct PaperFig6Row
{
    const char *app;
    double baseIpc;
    double finalGainPct;
};

constexpr PaperFig6Row kPaperFig6[4] = {
    {"Blast", 0.9, 53.0},
    {"Clustalw", 1.02, 89.0}, // 1.02 -> 1.93
    {"Fasta", 0.8, 69.0},
    {"Hmmer", 1.0, 51.0},
};

/**
 * Render @p vals as a coarse ASCII sparkline over [@p lo, @p hi].  A
 * degenerate range (hi <= lo: flat series, or caller passed the
 * min/max of one) renders every point as the lowest glyph instead of
 * dividing by zero.
 */
inline std::string
sparkline(const std::vector<double> &vals, double lo, double hi)
{
    static const char *glyphs = " .:-=+*#%@";
    std::string out;
    for (double v : vals) {
        double f = hi > lo ? (v - lo) / (hi - lo) : 0.0;
        f = std::max(0.0, std::min(1.0, f));
        out += glyphs[static_cast<size_t>(f * 9.0)];
    }
    return out;
}

/**
 * Append the CPI-stack share columns the fig benches grow under
 * --cpi: completing plus the paper's stall narrative (branch flush,
 * data-side, FXU, frontend).  Shares of total cycles, so rows of
 * different lengths stay comparable; the exact per-component cycle
 * counts go to the manifest (see obs::addCpiCells).
 */
inline void
addCpiColumns(support::ResultRow &row, const sim::Counters &c)
{
    row.setPct("done/cyc", c.cpiShare(sim::CpiComponent::Completing))
        .setPct("flush/cyc", c.cpiFlushShare())
        .setPct("data/cyc", c.cpiDataShare())
        .setPct("fxu/cyc", c.cpiShare(sim::CpiComponent::Fxu))
        .setPct("front/cyc", c.cpiShare(sim::CpiComponent::Frontend));
}

} // namespace bp5::bench

#endif // BIOPERF5_BENCH_BENCH_UTIL_H
