#include "driver/driver.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "obs/manifest.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace bp5::driver {

namespace {

/** Worker-local simulation state, reused across grid points. */
class WorkerState
{
  public:
    workloads::Workload &
    workloadFor(const workloads::WorkloadConfig &wc)
    {
        auto key = std::make_tuple(int(wc.app), int(wc.klass), wc.seed,
                                   wc.simInstructionBudget);
        auto it = workloads_.find(key);
        if (it == workloads_.end()) {
            it = workloads_
                     .emplace(key,
                              std::make_unique<workloads::Workload>(wc))
                     .first;
        }
        return *it->second;
    }

    kernels::MachinePool machines;

  private:
    std::map<std::tuple<int, int, uint64_t, uint64_t>,
             std::unique_ptr<workloads::Workload>>
        workloads_;
};

void
runPoint(WorkerState &state, const GridPoint &p, PointResult &out)
{
    auto t0 = std::chrono::steady_clock::now();
    workloads::Workload &w = state.workloadFor(p.workload);
    kernels::KernelMachine &km = state.machines.acquire(
        workloads::appKernel(p.workload.app), p.variant, p.machine);
    out.label = p.label;
    out.sim = w.simulate(km);
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
}

const char *
inputClassName(workloads::InputClass k)
{
    switch (k) {
    case workloads::InputClass::A: return "class A";
    case workloads::InputClass::B: return "class B";
    default: return "class C";
    }
}

} // namespace

ExperimentDriver::ExperimentDriver(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
    if (const char *env = std::getenv("BP5_MANIFEST"))
        manifestPath_ = env;
}

void
ExperimentDriver::writeManifest(const std::vector<GridPoint> &grid,
                                const std::vector<PointResult> &results,
                                double wallSeconds) const
{
    lastManifest_.clear();

    uint64_t instructions = 0;
    for (const PointResult &r : results)
        instructions += r.sim.counters.instructions;
    support::ResultRow sweep;
    sweep.set("tool", "driver")
        .set("kind", "sweep")
        .set("points", uint64_t(grid.size()))
        .set("threads", threads_)
        .set("instructions", instructions)
        .set("wall_s", wallSeconds, 3)
        .set("sim_mips",
             wallSeconds > 0.0 ? double(instructions) / wallSeconds / 1e6
                               : 0.0,
             2);
    lastManifest_.push_back(std::move(sweep));

    for (size_t i = 0; i < grid.size(); ++i) {
        const GridPoint &p = grid[i];
        obs::RunInfo info;
        info.tool = "driver";
        info.workload = workloads::appName(p.workload.app);
        info.variant = mpc::variantName(p.variant);
        info.input = inputClassName(p.workload.klass);
        info.invocations = results[i].sim.invocations;
        info.wallSeconds = results[i].wallSeconds;
        info.machine = p.machine;
        info.counters = results[i].sim.counters;
        support::ResultRow row = obs::manifestRow(info);
        row.set("label", p.label.empty() ? "-" : p.label)
            .set("kind", "point");
        lastManifest_.push_back(std::move(row));
    }

    obs::appendManifest(manifestPath_, lastManifest_, "run-manifest");
}

std::vector<PointResult>
ExperimentDriver::run(const std::vector<GridPoint> &grid) const
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<PointResult> results(grid.size());
    if (grid.empty())
        return results;

    unsigned workers = threads_;
    if (workers > grid.size())
        workers = static_cast<unsigned>(grid.size());

    if (workers <= 1) {
        WorkerState state;
        for (size_t i = 0; i < grid.size(); ++i)
            runPoint(state, grid[i], results[i]);
    } else {
        // Self-scheduling via the shared pool: workers pull the next
        // unclaimed index.  Result placement is by index, so
        // completion order never matters.  Each worker keeps its own
        // simulation state across the points it claims.
        support::ThreadPool pool(workers);
        std::vector<WorkerState> states(pool.threads());
        pool.parallelFor(grid.size(), [&](unsigned worker, size_t i) {
            runPoint(states[worker], grid[i], results[i]);
        });
    }

    writeManifest(grid, results,
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    return results;
}

} // namespace bp5::driver
