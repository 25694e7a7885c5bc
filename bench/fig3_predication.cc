/**
 * @file
 * Reproduces paper Fig 3: IPC of the four applications when the max
 * and isel predicated instructions are inserted by hand and by the
 * compiler's if-conversion pass, plus the "Combination" build
 * (hand max + compiler isel).  The (app x variant) sweep runs on the
 * parallel ExperimentDriver; results are aggregated in grid order.
 */

#include "bench/bench_util.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Fig 3: IPC with max and isel instructions "
                "(class %c inputs) ===\n\n",
                "ABC"[int(opts.klass)]);

    constexpr int kNumVariants = int(mpc::Variant::NUM_VARIANTS);
    std::vector<driver::GridPoint> grid;
    for (int a = 0; a < 4; ++a) {
        for (int v = 0; v < kNumVariants; ++v) {
            grid.push_back(opts.point(kApps[a],
                                      static_cast<mpc::Variant>(v),
                                      sim::MachineConfig()));
        }
    }
    std::vector<driver::PointResult> res = opts.driver().run(grid);

    for (int a = 0; a < 4; ++a) {
        const PaperFig3Row &p = kPaperFig3[a];
        double baseIpc =
            res[size_t(a) * kNumVariants].sim.counters.ipc();
        std::vector<support::ResultRow> rows;
        for (int v = 0; v < kNumVariants; ++v) {
            mpc::Variant var = static_cast<mpc::Variant>(v);
            const sim::Counters &c =
                res[size_t(a) * kNumVariants + v].sim.counters;
            std::string paper = "-";
            if (var == mpc::Variant::HandIsel && p.handIselPct >= 0)
                paper = strprintf("+%.1f%%", p.handIselPct);
            if (var == mpc::Variant::HandMax && p.handMaxPct >= 0)
                paper = strprintf("+%.1f%%", p.handMaxPct);
            support::ResultRow row;
            row.set("Application", appName(kApps[a]))
                .set("Variant", mpc::variantName(var))
                .set("IPC", c.ipc())
                .setGainPct("vs Original", c.ipc() / baseIpc - 1.0)
                .set("(paper)", paper)
                .setPct("isel+max/inst", c.predicatedFraction())
                .setPct("cmp/inst", c.compareFraction())
                .setPct("mispred/br", c.branchMispredictRate());
            if (opts.cpi)
                addCpiColumns(row, c);
            rows.push_back(row);
        }
        opts.emit(rows, std::string(appName(kApps[a])) + ":");
        opts.note("\n");
    }

    opts.note(
        "Shape checks (paper section VI-A):\n"
        "  - max outperforms isel for hand insertion (isel needs the\n"
        "    extra cmp: watch the cmp/inst column rise)\n"
        "  - Clustalw/Hmmer: hand beats the compiler (array-reference\n"
        "    hammocks block gcc's if-conversion)\n"
        "  - Blast/Fasta: the compiler beats hand insertion (it finds\n"
        "    the less obvious hammocks)\n"
        "  - comp. spec: the analysis-backed if-converter proves the\n"
        "    loads/stores gcc must reject safe, converting more\n"
        "    hammocks than comp. isel and narrowing the hand-vs-\n"
        "    compiler gap in the mispred/br column\n"
        "  - paper averages: isel +29.8%%, max +34.8%%\n");
    if (opts.cpi)
        opts.note(
            "\nCPI columns (--cpi, paper section IV cycle accounting):\n"
            "  - branch-flush cycles dominate the DP kernels' stalls in\n"
            "    the Original build (flush/cyc is the largest stall\n"
            "    share) and shrink under predication as the\n"
            "    hard-to-predict hammock branches disappear\n");
    return 0;
}
