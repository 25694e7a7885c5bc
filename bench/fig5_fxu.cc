/**
 * @file
 * Reproduces paper Fig 5: the effect of additional fixed-point units —
 * 2 vs 3 vs 4 FXUs on the original POWER5 and on the "Combination"
 * predicated build (whose max/isel instructions add FXU pressure).
 * The (build x app x FXU-count) sweep runs on the parallel
 * ExperimentDriver.
 */

#include "bench/bench_util.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Fig 5: effect of additional fixed-point units "
                "(class %c) ===\n\n",
                "ABC"[int(opts.klass)]);

    const mpc::Variant variants[2] = {mpc::Variant::Baseline,
                                      mpc::Variant::Combination};
    std::vector<driver::GridPoint> grid;
    for (mpc::Variant var : variants) {
        for (int a = 0; a < 4; ++a) {
            for (unsigned n = 2; n <= 4; ++n) {
                grid.push_back(opts.point(
                    kApps[a], var, sim::MachineConfig::power5WithFxu(n)));
            }
        }
    }
    std::vector<driver::PointResult> res = opts.driver().run(grid);

    size_t idx = 0;
    for (const char *which : {"Original", "Combination"}) {
        std::vector<support::ResultRow> rows;
        for (int a = 0; a < 4; ++a) {
            double ipc[3];
            double fxuShare[3];
            for (int k = 0; k < 3; ++k) {
                const sim::Counters &c = res[idx++].sim.counters;
                ipc[k] = c.ipc();
                fxuShare[k] = c.cpiShare(sim::CpiComponent::Fxu);
            }
            support::ResultRow row;
            row.set("Application", appName(kApps[a]))
                .set("2 FXU", ipc[0])
                .set("3 FXU", ipc[1])
                .set("4 FXU", ipc[2])
                .setGainPct("gain 2->3", ipc[1] / ipc[0] - 1.0)
                .setGainPct("gain 3->4", ipc[2] / ipc[1] - 1.0);
            if (opts.cpi) {
                row.setPct("fxu/cyc @2", fxuShare[0])
                    .setPct("fxu/cyc @3", fxuShare[1])
                    .setPct("fxu/cyc @4", fxuShare[2]);
            }
            rows.push_back(row);
        }
        opts.emit(rows, std::string(which) + " code:");
        opts.note("\n");
    }

    opts.note(
        "Shape checks (paper section VI-C):\n"
        "  - Hmmer benefits most from extra FXUs; Fasta the least\n"
        "  - moving from three to four units adds little\n"
        "  - predicated code (max/isel run in the FXUs) benefits\n"
        "    more than the original\n");
    if (opts.cpi)
        opts.note(
            "\nCPI columns (--cpi): the fxu/cyc saturation share\n"
            "  shrinks as units are added — the cycle-accounting view\n"
            "  of the same diminishing returns\n");
    return 0;
}
