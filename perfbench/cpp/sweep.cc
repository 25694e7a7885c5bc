#include "phases.h"

#include "analysis/lint.h"
#include "kernels/kernels.h"

namespace perfbench {

using namespace bp5;

const std::vector<workloads::App> &
allApps()
{
    static const std::vector<workloads::App> apps = {
        workloads::App::Blast, workloads::App::Clustalw,
        workloads::App::Fasta, workloads::App::Hmmer};
    return apps;
}

const std::vector<NamedConfig> &
gridConfigs()
{
    // Classic vs LSQ memory system differ only in the memsys layer, so
    // a memsys-only change moves one configuration and not the others.
    static const std::vector<NamedConfig> configs = {
        {"classic", sim::MachineConfig::power5Baseline()},
        {"lsq_stride",
         sim::MachineConfig::power5WithLsq(
             16, 16, sim::PrefetchParams::Kind::Stride)},
        {"enhanced", sim::MachineConfig::power5Enhanced()},
    };
    return configs;
}

namespace {

const mpc::Variant kVariants[] = {mpc::Variant::Baseline,
                                  mpc::Variant::CompMax};

std::vector<driver::GridPoint>
makeGrid(uint64_t seed, uint64_t budget)
{
    std::vector<driver::GridPoint> grid;
    for (workloads::App app : allApps()) {
        for (mpc::Variant v : kVariants) {
            for (const NamedConfig &nc : gridConfigs()) {
                driver::GridPoint p;
                p.label = std::string(workloads::appName(app)) + "/" +
                          mpc::variantName(v) + "/" + nc.name;
                p.workload.app = app;
                p.workload.klass = workloads::InputClass::B;
                p.workload.seed = seed;
                p.workload.simInstructionBudget = budget;
                p.variant = v;
                p.machine = nc.config;
                grid.push_back(p);
            }
        }
    }
    return grid;
}

} // namespace

SweepPhase::SweepPhase(uint64_t seed, uint64_t budget, Spans &spans,
                       Outcome &out)
    : grid_(makeGrid(seed, budget)),
      warmGrid_(makeGrid(seed, budget / 20 + 1)), driver_(2),
      spans_(spans), out_(out)
{
    driver_.setManifestPath(""); // no manifest I/O inside the timed sweep
}

void
SweepPhase::setup(SetupCosts &costs)
{
    Scope s(spans_, "setup.sweep");
    // ExperimentDriver builds its own workloads and machines inside
    // every run(), so sweep_s includes that cost.  Set-up pays the same
    // construction once, serially, through the public APIs, and warms
    // the process with a short sweep.
    for (workloads::App app : allApps()) {
        workloads::WorkloadConfig wc = grid_.front().workload;
        wc.app = app;
        double t0 = wallNow();
        {
            Scope in(spans_, "bio.inputs");
            workloads::Workload w(wc);
        }
        costs.inputsMs += (wallNow() - t0) * 1e3;

        for (mpc::Variant v : kVariants) {
            kernels::KernelKind kind = workloads::appKernel(app);
            double c0 = wallNow();
            mpc::Compiled compiled;
            {
                Scope sc(spans_, "mpc.compile");
                compiled = kernels::compileKernel(kind, v);
            }
            double c1 = wallNow();
            masm::Program prog = compiled.program(kernels::kCodeBase);
            double l0 = wallNow();
            unsigned errors = 0;
            {
                Scope sl(spans_, "analysis.lint");
                errors = analysis::lintProgram(prog).errors();
            }
            double l1 = wallNow();
            costs.compileUs.add((c1 - c0) * 1e6);
            costs.lintUs.add((l1 - l0) * 1e6);
            out_.check(errors == 0, std::string("lint errors in ") +
                                        kernels::kernelName(kind));

            for (const NamedConfig &nc : gridConfigs()) {
                double b0 = wallNow();
                Scope sb(spans_, "kernels.build");
                kernels::KernelMachine km(kind, v, nc.config);
                costs.buildUs.add((wallNow() - b0) * 1e6);
            }
        }
    }
    Scope sw(spans_, "driver.warmup");
    driver_.run(warmGrid_);
}

void
SweepPhase::pass()
{
    Scope s(spans_, "driver.sweep", passes());
    double w0 = wallNow();
    double c0 = processCpuNow();
    std::vector<driver::PointResult> res = driver_.run(grid_);
    double cpu = processCpuNow() - c0;
    double wall = wallNow() - w0;

    std::vector<sim::Counters> counts;
    uint64_t instructions = 0;
    double pointSeconds = 0.0;
    for (const driver::PointResult &r : res) {
        counts.push_back(r.sim.counters);
        instructions += r.sim.counters.instructions;
        pointSeconds += r.wallSeconds;
        out_.check(r.sim.counters.instructions > 0 &&
                       r.sim.counters.cpiSum() == r.sim.counters.cycles,
                   "sweep point " + r.label + " has no or unbalanced counts");
    }
    if (first_.empty())
        first_ = counts;
    else
        out_.check(counts == first_,
                   "sweep counters differ between passes");

    // Each point's budget loop ends with a whole kernel invocation, which
    // overshoots the budget by an input-dependent amount: a sweep
    // simulates 15-18M instructions depending on the seed.  sweep_s is
    // therefore the wall time scaled to the grid's nominal instructions.
    double nominal = double(grid_.size()) *
                     double(grid_.front().workload.simInstructionBudget);
    wall_.add(wall);
    scaledWall_.add(wall * nominal / double(instructions));
    workerCpu_.add(cpu / double(driver_.threads()));
    mips_.add(double(instructions) / cpu / 1e6);
    // Share of the workers' wall time not spent inside grid points:
    // pool start-up, load imbalance at the end of the sweep, manifest.
    overheadPct_.add(
        100.0 * (1.0 - pointSeconds / (double(driver_.threads()) * wall)));
}

void
SweepPhase::report(Metrics &e2e, Metrics &layer, Metrics &detail) const
{
    // Wall seconds: a sweep whose workers wait on each other takes longer
    // without using more CPU.  CPU seconds per worker are a detail.
    e2e["sweep_s"] = {scaledWall_.rank(100 - kRateQuantile), "s"};
    detail["sweep_s.median"] = {scaledWall_.median(), "s"};
    detail["sweep_s.unscaled"] = {wall_.rank(100 - kRateQuantile), "s"};
    detail["sweep.instructions"] = {
        double(sumCounters(first_).instructions), "count"};
    detail["sweep_s.cpu_per_worker"] = {
        workerCpu_.rank(100 - kRateQuantile), "cpu-s"};
    e2e["timing_mips"] = {mips_.rank(kRateQuantile), "MIPS"};
    detail["timing_mips.median"] = {mips_.median(), "MIPS"};
    layer["driver.overhead_pct"] = {overheadPct_.median(), "%"};
    detail["sweep.passes"] = {double(wall_.size()), "count"};
}

} // namespace perfbench
