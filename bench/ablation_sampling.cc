/**
 * @file
 * Methodology ablation: sensitivity of the reported counters to the
 * kernel-sampling instruction budget (the analogue of the paper's
 * SMARTS-style uniform sampling).  The headline metrics must be
 * stable once the budget covers a few kernel invocations — otherwise
 * every other bench in this suite would be sampling noise.  The
 * (app x budget) sweep runs on the parallel ExperimentDriver.
 */

#include <cmath>

#include "bench/bench_util.h"
#include "kernels/kernels.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Ablation: sampling-budget sensitivity "
                "(class %c, Original code) ===\n\n",
                "ABC"[int(opts.klass)]);

    const uint64_t budgets[] = {250'000, 1'000'000, 4'000'000,
                                16'000'000};
    constexpr size_t kNumBudgets = std::size(budgets);

    std::vector<driver::GridPoint> grid;
    for (int a = 0; a < 4; ++a) {
        for (uint64_t budget : budgets) {
            driver::GridPoint p = opts.point(
                kApps[a], mpc::Variant::Baseline, sim::MachineConfig());
            p.workload.simInstructionBudget = budget;
            grid.push_back(p);
        }
    }
    std::vector<driver::PointResult> res = opts.driver().run(grid);

    for (int a = 0; a < 4; ++a) {
        const size_t b = size_t(a) * kNumBudgets;
        std::vector<support::ResultRow> rows;
        for (size_t k = 0; k < kNumBudgets; ++k) {
            const workloads::SimResult &r = res[b + k].sim;
            support::ResultRow row;
            row.set("budget", std::to_string(budgets[k] / 1000) + "k")
                .set("invocations", uint64_t(r.invocations))
                .set("IPC", r.counters.ipc())
                .setPct("branch share", r.counters.branchFraction())
                .setPct("mispredict",
                        r.counters.branchMispredictRate());
            rows.push_back(row);
        }
        opts.emit(rows, std::string(appName(kApps[a])) + ":");
        double drift = res[b].sim.counters.ipc() /
                           res[b + kNumBudgets - 1].sim.counters.ipc() -
                       1.0;
        opts.note("  IPC drift smallest vs largest budget: %+.1f%%\n\n",
                    drift * 100.0);
    }

    opts.note("Finding: the per-instruction metrics converge within\n"
                "a few percent once a handful of invocations are\n"
                "sampled, validating the sampling methodology used\n"
                "throughout the suite.\n");

    // --- SMARTS sampled timing: extrapolation error bounds ----------
    //
    // The simulator's own sampled-timing mode (sim::SamplingParams:
    // detailed measurement windows + warmed functional fast-forward)
    // must reproduce the full-detail IPC and mispredict rate within
    // tight bounds, or the speedup it buys is not usable for the
    // paper's metrics.  Violations make the binary exit nonzero so CI
    // catches a regression in the window extrapolation.
    opts.note("\n=== SMARTS sampled timing: extrapolation error ===\n\n");

    constexpr double kIpcTolPct = 10.0;  // |IPC error|, percent
    constexpr double kMispredTol = 1.0;  // mispredicts per 100 insts
    // LSQ/prefetch event-rate tolerance: extrapolated forwards,
    // squashes and prefetch hits per 100 instructions may deviate from
    // full detail by this much.  lsqFull* are deliberately excluded:
    // they are occupancy-style counters that cluster in kernel
    // prologues, exactly where the per-invocation detail window sits,
    // so uniform extrapolation over-weights them by design.
    constexpr double kLsqRateTol = 0.75;
    const struct { uint64_t detail, skip; } settings[] = {
        {1'000, 19'000}, // 5% detail, short windows
        {2'000, 38'000}, // 5% detail, the sim_speed_bench setting
    };
    const struct { const char *name; sim::MachineConfig mc; } machines[] = {
        {"classic", sim::MachineConfig()},
        {"lsq+stride",
         sim::MachineConfig::power5WithLsq(
             16, 16, sim::PrefetchParams::Kind::Stride)},
    };
    // Events per 100 instructions, for rate-error comparison.
    auto per100 = [](uint64_t events, uint64_t insts) {
        return insts ? 100.0 * double(events) / double(insts) : 0.0;
    };
    auto lsqRateErr = [&](const sim::Counters &s, const sim::Counters &f) {
        double err = 0.0;
        const uint64_t se[] = {s.storeForwards, s.disambigFlushes,
                               s.prefetchHits};
        const uint64_t fe[] = {f.storeForwards, f.disambigFlushes,
                               f.prefetchHits};
        for (size_t i = 0; i < std::size(se); ++i)
            err = std::max(err,
                           std::fabs(per100(se[i], s.instructions) -
                                     per100(fe[i], f.instructions)));
        return err;
    };
    int violations = 0;
    std::vector<support::ResultRow> vrows;
    for (int a = 0; a < 4; ++a) {
        workloads::WorkloadConfig wc = opts.workload(kApps[a]);
        wc.simInstructionBudget =
            std::min<uint64_t>(opts.budget, 1'000'000);
        workloads::Workload w(wc);

        for (const auto &machine : machines) {
            kernels::KernelMachine full(appKernel(kApps[a]),
                                        mpc::Variant::Baseline,
                                        machine.mc);
            w.simulate(full);
            double fullIpc = full.totals().ipc();
            double fullMr =
                100.0 * double(full.totals().mispredDirection) /
                double(full.totals().instructions);

            for (auto s : settings) {
                kernels::KernelMachine km(appKernel(kApps[a]),
                                          mpc::Variant::Baseline,
                                          machine.mc);
                km.setSampling({s.detail, s.skip, true});
                w.simulate(km);
                double ipc = km.totals().ipc();
                double mr =
                    100.0 * double(km.totals().mispredDirection) /
                    double(km.totals().instructions);
                double ipcErrPct =
                    100.0 * std::fabs(ipc - fullIpc) / fullIpc;
                double mrErr = std::fabs(mr - fullMr);
                double lsqErr = lsqRateErr(km.totals(), full.totals());
                bool archExact =
                    km.totals().instructions ==
                        full.totals().instructions &&
                    km.totals().branches == full.totals().branches &&
                    km.totals().loads == full.totals().loads &&
                    km.totals().stores == full.totals().stores;
                bool ok = archExact && ipcErrPct < kIpcTolPct &&
                          mrErr < kMispredTol && lsqErr < kLsqRateTol;
                if (!ok)
                    ++violations;

                support::ResultRow row;
                row.set("app", appName(kApps[a]))
                    .set("memsys", machine.name)
                    .set("window",
                         std::to_string(s.detail / 1000) + "k/" +
                             std::to_string(s.skip / 1000) + "k")
                    .set("full IPC", fullIpc)
                    .set("sampled IPC", ipc)
                    .setPct("IPC err", ipcErrPct / 100.0)
                    .set("mispred err/100", mrErr)
                    .set("lsq err/100", lsqErr)
                    .set("arch exact", archExact ? "yes" : "NO")
                    .set("ok", ok ? "yes" : "NO");
                vrows.push_back(row);
            }
        }
    }
    opts.emit(vrows, "sampled-timing error:");
    if (violations > 0) {
        std::fprintf(stderr,
                     "FAIL: %d sampled-timing point(s) exceed the "
                     "error bounds (IPC < %.0f%%, mispredicts < %.1f "
                     "per 100 instructions, lsq/prefetch events < %.1f "
                     "per 100 instructions, arch counters exact)\n",
                     violations, kIpcTolPct, kMispredTol, kLsqRateTol);
        return 1;
    }
    opts.note("\nFinding: sampled timing stays within %.0f%% IPC error,\n"
                "%.1f mispredicts and %.1f LSQ/prefetch events per 100\n"
                "instructions of full detail, on the classic and the\n"
                "LSQ memory system, with architectural counters exact.\n",
                kIpcTolPct, kMispredTol, kLsqRateTol);
    return 0;
}
