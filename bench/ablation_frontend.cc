/**
 * @file
 * Front-end ablation: the two knobs behind the paper's branch-cost
 * analysis — the taken-branch bubble (2 cycles; 3 with SMT, per
 * section III) and the misprediction redirect penalty — swept on the
 * Original and hand-max builds via the parallel ExperimentDriver.
 */

#include "bench/bench_util.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Ablation: taken-branch bubble and mispredict "
                "penalty (class %c) ===\n\n",
                "ABC"[int(opts.klass)]);

    const unsigned bubbles[3] = {0, 2, 3};
    const unsigned redirects[4] = {8, 16, 24, 32};
    const mpc::Variant builds[2] = {mpc::Variant::Baseline,
                                    mpc::Variant::HandMax};

    // One grid: 4 apps x 3 bubbles, then 4 apps x 2 builds x 4
    // redirect penalties.
    std::vector<driver::GridPoint> grid;
    for (int a = 0; a < 4; ++a) {
        for (unsigned pen : bubbles) {
            sim::MachineConfig mc;
            mc.takenBranchPenalty = pen;
            grid.push_back(
                opts.point(kApps[a], mpc::Variant::Baseline, mc));
        }
    }
    const size_t redirectBase = grid.size();
    for (int a = 0; a < 4; ++a) {
        for (mpc::Variant v : builds) {
            for (unsigned pen : redirects) {
                sim::MachineConfig mc;
                mc.mispredictPenalty = pen;
                grid.push_back(opts.point(kApps[a], v, mc));
            }
        }
    }
    std::vector<driver::PointResult> res = opts.driver().run(grid);

    std::vector<support::ResultRow> rows;
    for (int a = 0; a < 4; ++a) {
        double ipc[3];
        for (int k = 0; k < 3; ++k)
            ipc[k] = res[size_t(a) * 3 + k].sim.counters.ipc();
        support::ResultRow row;
        row.set("Application", appName(kApps[a]))
            .set("0 cycles", ipc[0])
            .set("2 (POWER5)", ipc[1])
            .set("3 (SMT)", ipc[2])
            .set("bubble cost",
                 strprintf("+%.1f%% if removed",
                           (ipc[0] / ipc[1] - 1.0) * 100.0));
        rows.push_back(row);
    }
    opts.emit(rows, "taken-branch bubble (Original code):");

    opts.note("\n");
    std::vector<support::ResultRow> rows2;
    size_t idx = redirectBase;
    for (int a = 0; a < 4; ++a) {
        for (mpc::Variant v : builds) {
            support::ResultRow row;
            row.set("Application", appName(kApps[a]))
                .set("code", mpc::variantName(v));
            for (unsigned pen : redirects) {
                row.set(std::to_string(pen) +
                            (pen == 16 ? " (default)" : " cycles"),
                        res[idx++].sim.counters.ipc());
            }
            rows2.push_back(row);
        }
    }
    opts.emit(rows2, "mispredict redirect penalty:");

    opts.note(
        "\nFindings: the branchy Original build degrades steadily as\n"
        "the redirect penalty grows, while the predicated build is\n"
        "almost flat - it barely mispredicts.  The 2-cycle bubble\n"
        "costs a few percent of baseline IPC (what the BTAC of Fig 4\n"
        "recovers), and the SMT-mode 3-cycle bubble costs more.\n");
    return 0;
}
