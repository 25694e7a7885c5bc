#include "phases.h"

#include <cmath>

#include "kernels/kernels.h"

namespace perfbench {

using namespace bp5;

namespace {

/// SMARTS windows as in sim_speed_bench: 2k-instruction detailed
/// windows every 40k instructions (5% detail).
const sim::SamplingParams kSampling{2'000, 38'000, true};

} // namespace

struct FastPhase::App
{
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<kernels::KernelMachine> km;
    sim::Counters functional, sampled, full;
    bool havePass = false;
};

FastPhase::FastPhase(uint64_t seed, uint64_t budget, Spans &spans,
                     Outcome &out)
    : seed_(seed), budget_(budget), spans_(spans), out_(out)
{
}

FastPhase::~FastPhase() = default;

void
FastPhase::setup(SetupCosts &costs)
{
    Scope s(spans_, "setup.fast");
    apps_.clear();
    for (workloads::App app : allApps()) {
        workloads::WorkloadConfig wc;
        wc.app = app;
        wc.klass = workloads::InputClass::B;
        wc.seed = seed_;
        wc.simInstructionBudget = budget_;
        auto a = std::make_unique<App>();
        double t0 = wallNow();
        {
            Scope in(spans_, "bio.inputs");
            a->workload = std::make_unique<workloads::Workload>(wc);
        }
        double t1 = wallNow();
        {
            Scope sb(spans_, "kernels.build");
            a->km = std::make_unique<kernels::KernelMachine>(
                workloads::appKernel(app), mpc::Variant::Baseline,
                sim::MachineConfig::power5Baseline());
        }
        costs.inputsMs += (t1 - t0) * 1e3;
        costs.buildUs.add((wallNow() - t1) * 1e6);
        apps_.push_back(std::move(a));
    }
    // Warm-up: one unrecorded run of each mode.
    Scope w(spans_, "fast.warmup");
    for (auto &a : apps_) {
        double cpu = 0.0;
        sim::Counters c;
        simulateOnce(*a, false, cpu, c);
        simulateOnce(*a, true, cpu, c);
    }
}

void
FastPhase::simulateOnce(App &a, bool sampled, double &cpu,
                        sim::Counters &c)
{
    double r0 = threadCpuNow();
    {
        Scope sr(spans_, "kernels.reset");
        a.km->reset(); // also clears the mode flags; re-apply below
    }
    resetUs_.add((threadCpuNow() - r0) * 1e6);
    if (sampled)
        a.km->setSampling(kSampling);
    else
        a.km->setFunctionalOnly(true);

    Scope s(spans_, sampled ? "sim.sampled" : "sim.functional");
    double c0 = threadCpuNow();
    workloads::SimResult r = a.workload->simulate(*a.km);
    cpu += threadCpuNow() - c0;
    c = r.counters;
}

void
FastPhase::reference()
{
    Scope s(spans_, "fast.reference");
    double err = 0.0;
    for (auto &a : apps_) {
        {
            a->km->reset();
            Scope st(spans_, "sim.timing");
            a->full = a->workload->simulate(*a->km).counters;
        }
        // Both IPCs cover the same instructions: the budget loop stops
        // after the same kernel invocation in every mode.
        double cpu = 0.0;
        simulateOnce(*a, true, cpu, a->sampled);
        out_.check(a->sampled.instructions == a->full.instructions,
                   std::string(workloads::appName(a->workload->app())) +
                       ": sampled instruction count != full-detail");
        double full = a->full.ipc();
        err += std::fabs(a->sampled.ipc() - full) / full;
    }
    ipcErrPct_ = 100.0 * err / double(apps_.size());
}

void
FastPhase::pass()
{
    Scope s(spans_, "fast.pass", passes());
    double w0 = wallNow();
    double fCpu = 0.0, sCpu = 0.0;
    uint64_t fInst = 0, sInst = 0;
    for (auto &a : apps_) {
        sim::Counters f, smp;
        simulateOnce(*a, false, fCpu, f);
        simulateOnce(*a, true, sCpu, smp);
        fInst += f.instructions;
        sInst += smp.instructions;
        std::string name = workloads::appName(a->workload->app());
        // Sampling extrapolates cycles, never the architectural count.
        out_.check(smp.instructions == f.instructions,
                   name + ": sampled instruction count != functional");
        if (!a->havePass) {
            a->functional = f;
            a->havePass = true;
        } else {
            out_.check(f == a->functional,
                       name + ": functional counters differ between passes");
        }
        out_.check(smp == a->sampled,
                   name + ": sampled counters differ between passes");
    }
    wall_.add(wallNow() - w0);
    functionalMips_.add(double(fInst) / fCpu / 1e6);
    sampledMips_.add(double(sInst) / sCpu / 1e6);
}

std::vector<sim::Counters>
FastPhase::counts() const
{
    std::vector<sim::Counters> v;
    for (const auto &a : apps_) {
        v.push_back(a->functional);
        v.push_back(a->sampled);
        v.push_back(a->full);
    }
    return v;
}

sim::Counters
FastPhase::sampledTotal() const
{
    std::vector<sim::Counters> v;
    for (const auto &a : apps_)
        v.push_back(a->sampled);
    return sumCounters(v);
}

void
FastPhase::report(Metrics &e2e, Metrics &layer, Metrics &detail) const
{
    double f = functionalMips_.rank(kRateQuantile);
    double s = sampledMips_.rank(kRateQuantile);
    detail["functional_mips.median"] = {functionalMips_.median(), "MIPS"};
    detail["sampled_mips.median"] = {sampledMips_.median(), "MIPS"};
    e2e["functional_mips"] = {f, "MIPS"};
    e2e["sampled_mips"] = {s, "MIPS"};
    // Deterministic for a seed but input-dependent (about 1-2.5% across
    // seeds), so it is reported with the exact counts, not gated.
    layer["sampled_ipc_err_pct"] = {ipcErrPct_, "%"};
    layer["sim.functional_ns_per_inst"] = {1e3 / f, "ns"};
    layer["sim.sampled_ns_per_inst"] = {1e3 / s, "ns"};
    layer["kernels.reset_us"] = {resetUs_.median(), "us"};
    detail["fast.passes"] = {double(wall_.size()), "count"};
}

} // namespace perfbench
