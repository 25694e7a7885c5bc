/**
 * @file
 * Reproduces paper Table I: hardware-counter data for Blast, Clustalw,
 * Fasta and Hmmer on the baseline POWER5 configuration — IPC, L1D miss
 * rate, the share of branch mispredictions caused by wrong direction,
 * and completion stalls attributed to FXU instructions.
 */

#include "bench/bench_util.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    std::printf("=== Table I: hardware counter data, baseline POWER5 "
                "(class %c inputs) ===\n\n",
                "ABC"[int(opts.klass)]);

    TextTable t;
    t.header({"Application", "IPC", "(paper)", "L1D miss", "(paper)",
              "dir. mispred", "(paper)", "FXU stalls", "(paper)"});

    std::vector<sim::Counters> counters;
    for (int a = 0; a < 4; ++a) {
        Workload w(opts.workload(kApps[a]));
        SimResult r = w.simulate(mpc::Variant::Baseline,
                                 sim::MachineConfig());
        const sim::Counters &c = r.counters;
        counters.push_back(c);
        const PaperTable1Row &p = kPaperTable1[a];
        t.row({appName(kApps[a]),
               num(c.ipc()),
               num(p.ipc, 1),
               pct(c.l1dMissRate()),
               num(p.l1dMissPct, 1) + "%",
               pct(c.mispredictDirectionShare(), 2),
               num(p.dirSharePct, 2) + "%",
               pct(c.stallShare(sim::StallReason::FXU)),
               num(p.fxuStallPct, 1) + "%"});
    }
    t.print();

    if (opts.cpi) {
        // The full POWER5-style cycle-accounting view of the same
        // runs: every cycle in exactly one component (DESIGN 4.10).
        std::vector<support::ResultRow> rows;
        for (int a = 0; a < 4; ++a) {
            support::ResultRow row;
            row.set("Application", appName(kApps[a]));
            addCpiColumns(row, counters[size_t(a)]);
            rows.push_back(row);
        }
        opts.note("\n");
        opts.emit(rows, "CPI stack (share of cycles):");
    }

    std::printf("\nShape checks (paper section III):\n"
                "  - IPC well below the 5-wide completion limit\n"
                "  - L1D miss rates are tiny: caches are not the "
                "bottleneck\n"
                "  - nearly all mispredictions are direction-caused\n");
    return 0;
}
