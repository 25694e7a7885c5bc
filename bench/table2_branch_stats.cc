/**
 * @file
 * Reproduces paper Table II: branch statistics of the four
 * applications for each predication variant — percentage of
 * instructions that are branches, the branch misprediction rate, and
 * the fraction of branches taken.
 *
 * With --analyze, each application's baseline kernel additionally gets
 * the static/dynamic branch breakdown: the bp5_analysis classifier
 * labels every branch site in the binary (loop-back / data-dep /
 * guard), the run collects per-site PMU counters, and the join shows
 * which static class the mispredictions concentrate in.  The paper's
 * claim (section IV-A) is that the data-dependent max() hammocks
 * dominate — this table is that claim made measurable.
 */

#include "analysis/branch_class.h"
#include "bench/bench_util.h"
#include "kernels/kernels.h"
#include "obs/site_profile.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Table II: branch behaviour with predicated "
              "instructions (class %c) ===\n\n",
              "ABC"[int(opts.klass)]);

    for (int a = 0; a < 4; ++a) {
        Workload w(opts.workload(kApps[a]));
        const PaperTable2Row &p = kPaperTable2[a];
        std::vector<support::ResultRow> rows;
        obs::SiteProfileSink baseline; // per-site counters (Original)
        mpc::Compiled baselineCode;
        for (int v = 0; v < 5; ++v) { // Table II has no Combination
            mpc::Variant var = static_cast<mpc::Variant>(v);
            kernels::KernelMachine km(appKernel(kApps[a]), var,
                                      sim::MachineConfig());
            if (opts.analyze && v == 0)
                km.setTraceSink(&baseline);
            SimResult r = w.simulate(km);
            const sim::Counters &c = r.counters;
            support::ResultRow row;
            row.set("Variant", mpc::variantName(var))
                .setPct("branches/inst", c.branchFraction())
                .setPct("branches/inst (paper)",
                        p.branchesPct[v] / 100.0)
                .setPct("mispredict", c.branchMispredictRate())
                .setPct("mispredict (paper)", p.mispredictPct[v] / 100.0)
                .setPct("taken", c.takenBranchFraction())
                .setPct("taken (paper)", p.takenPct[v] / 100.0);
            rows.push_back(row);
            if (v == 0)
                baselineCode = std::move(r.compiled);
        }
        opts.emit(rows, std::string(appName(kApps[a])) + ":");
        opts.note("\n");

        if (opts.analyze) {
            // Static classification of the baseline binary, joined
            // with the per-site PMU counters of the run above.
            analysis::Cfg cfg = analysis::buildCfg(
                analysis::CodeImage::fromProgram(
                    baselineCode.program(kernels::kCodeBase)));
            auto sites = analysis::classifyBranches(cfg);
            auto classes =
                analysis::joinProfile(sites, baseline.branches());
            std::string app = appName(kApps[a]);
            opts.emit(analysis::classProfileRows(classes),
                      app + ": static class vs PMU (Original)");
            opts.note("\n");
            opts.emit(analysis::siteProfileRows(sites,
                                                baseline.branches(), 8),
                      app + ": hottest mispredicting sites");
            opts.note("\n");
        }
    }

    opts.note("Shape checks (paper section VI-A): predication "
              "reduces the branch share of every application\n"
              "(Clustalw's roughly halves), while the remaining "
              "branches stay hard or get easier to predict.\n");
    return 0;
}
