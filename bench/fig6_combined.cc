/**
 * @file
 * Reproduces paper Fig 6: the cumulative effect of all three
 * enhancements — predication, the BTAC, and four FXUs — including the
 * "residual" category showing that the combination gains more than
 * the sum of the individual deltas.  The five configurations per app
 * run as one grid on the parallel ExperimentDriver; aggregation is in
 * grid order, so output is identical for any --threads value.
 */

#include "bench/bench_util.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    // Per app: {base, +pred, +BTAC, +FXUs, all}.
    sim::MachineConfig base;
    std::vector<driver::GridPoint> grid;
    for (int a = 0; a < 4; ++a) {
        grid.push_back(opts.point(kApps[a], mpc::Variant::Baseline,
                                  base));
        grid.push_back(opts.point(kApps[a], mpc::Variant::Combination,
                                  base));
        grid.push_back(opts.point(kApps[a], mpc::Variant::Baseline,
                                  sim::MachineConfig::power5WithBtac()));
        grid.push_back(opts.point(kApps[a], mpc::Variant::Baseline,
                                  sim::MachineConfig::power5WithFxu(4)));
        grid.push_back(opts.point(kApps[a], mpc::Variant::Combination,
                                  sim::MachineConfig::power5Enhanced()));
    }
    std::vector<driver::PointResult> res = opts.driver().run(grid);

    auto signedIpc = [](double v) {
        return strprintf(v >= 0 ? "+%.2f" : "%.2f", v);
    };
    std::vector<support::ResultRow> rows;
    std::vector<double> gains;
    for (int a = 0; a < 4; ++a) {
        const size_t b = size_t(a) * 5;
        double ipcBase = res[b + 0].sim.counters.ipc();
        double dPred = res[b + 1].sim.counters.ipc() - ipcBase;
        double dBtac = res[b + 2].sim.counters.ipc() - ipcBase;
        double dFxu = res[b + 3].sim.counters.ipc() - ipcBase;
        double ipcAll = res[b + 4].sim.counters.ipc();
        double residual = ipcAll - (ipcBase + dPred + dBtac + dFxu);
        double gain = ipcAll / ipcBase - 1.0;
        gains.push_back(gain);

        const PaperFig6Row &p = kPaperFig6[a];
        support::ResultRow row;
        row.set("Application", appName(kApps[a]))
            .set("base", ipcBase)
            .set("+pred", signedIpc(dPred))
            .set("+BTAC", signedIpc(dBtac))
            .set("+FXUs", signedIpc(dFxu))
            .set("residual", signedIpc(residual))
            .set("all", ipcAll)
            .setGainPct("total gain", gain)
            .set("(paper)", strprintf("+%.0f%%", p.finalGainPct));
        if (opts.cpi) {
            // Cycle accounting of base vs all-enhancements: the flush
            // share collapsing is where the combined gain comes from.
            const sim::Counters &cb = res[b + 0].sim.counters;
            const sim::Counters &ca = res[b + 4].sim.counters;
            row.setPct("flush/cyc base",
                       cb.cpiShare(sim::CpiComponent::BranchFlush))
                .setPct("flush/cyc all",
                        ca.cpiShare(sim::CpiComponent::BranchFlush))
                .setPct("done/cyc all",
                        ca.cpiShare(sim::CpiComponent::Completing));
        }
        rows.push_back(row);
    }
    opts.emit(rows, strprintf("Fig 6: combining predication, BTAC and "
                              "four FXUs (class %c):",
                              "ABC"[int(opts.klass)]));

    double avg = 0.0;
    for (double g : gains)
        avg += g;
    avg /= double(gains.size());
    opts.note("\naverage improvement: %+.1f%% (paper: +64%% across "
                "the four applications)\n",
                avg * 100.0);
    opts.note("Shape checks (paper section VI-D): predication is the\n"
                "largest single contributor; the residual is positive\n"
                "for most applications (the techniques reinforce each\n"
                "other).\n");
    return 0;
}
