/**
 * @file
 * The benchmark's three measured paths.  Each workload runs all three,
 * so that every end-to-end metric is measured on every workload; the
 * workload named on the command line gets the rest of the timed region
 * after the other two have run their fixed minimum (see main.cc).
 *
 *  - SweepPhase: full-detail timing of the paper's grid through
 *    driver::ExperimentDriver (scheduleInstruction, predictor/BTAC, FXU
 *    issue and the memory system do the work).
 *  - FastPhase: the four apps single-threaded in functional mode and in
 *    SMARTS sampled mode (the functional executor does the work).
 *  - ServePhase: an in-process serve::Server with short timing jobs,
 *    a closed loop for capacity and an open loop at a fixed rate for
 *    latency (per-job overhead: reset, reference check, queueing,
 *    batch hold).
 *
 * Every phase checks its outputs: simulated counts must repeat exactly
 * across passes and match an independent run of the same inputs.
 */

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include <memory>
#include <vector>

#include "common.h"
#include "driver/driver.h"
#include "serve/server.h"
#include "workloads/workload.h"

namespace perfbench {

/**
 * Quantile of per-pass rates that is reported, CPU-time and wall-clock
 * alike (per-pass times report the mirror quantile).  On a shared host
 * a fixed pass runs at a stable floor with bursts of up to 1.6x faster
 * passes, and the same seed repeated spreads as much as different seeds
 * do; the slow-side quartile tracks the floor, where the median and the
 * fast side jump with the share of bursts in a run.  The median is
 * printed beside it as a detail.
 */
constexpr double kRateQuantile = 25;

/** Host costs of set-up, one sample per call into the program. */
struct SetupCosts
{
    Samples compileUs; ///< kernels::compileKernel
    Samples lintUs;    ///< analysis::lintProgram
    Samples buildUs;   ///< KernelMachine constructor
    double inputsMs = 0.0; ///< input synthesis of the current set-up
};

/** The four applications in paper Table I order. */
const std::vector<bp5::workloads::App> &allApps();

/** The three machine configurations of the timing grid. */
struct NamedConfig
{
    const char *name;
    bp5::sim::MachineConfig config;
};
const std::vector<NamedConfig> &gridConfigs();

/** Full-detail timing sweep through ExperimentDriver. */
class SweepPhase
{
  public:
    SweepPhase(uint64_t seed, uint64_t budget, Spans &spans, Outcome &out);

    void setup(SetupCosts &costs);
    void pass();

    size_t passes() const { return wall_.size(); }
    /** Counters of every grid point of the first pass, in grid order. */
    const std::vector<bp5::sim::Counters> &counts() const { return first_; }

    void report(Metrics &e2e, Metrics &layer, Metrics &detail) const;

  private:
    std::vector<bp5::driver::GridPoint> grid_;
    std::vector<bp5::driver::GridPoint> warmGrid_;
    bp5::driver::ExperimentDriver driver_;
    Spans &spans_;
    Outcome &out_;
    Samples wall_, scaledWall_, workerCpu_, mips_, overheadPct_;
    std::vector<bp5::sim::Counters> first_;
};

/** Functional and SMARTS-sampled runs of the four apps. */
class FastPhase
{
  public:
    FastPhase(uint64_t seed, uint64_t budget, Spans &spans, Outcome &out);
    ~FastPhase();

    void setup(SetupCosts &costs);
    /** Full-detail reference runs (deterministic): the sampled-mode
     *  error is measured against these. */
    void reference();
    void pass();

    size_t passes() const { return wall_.size(); }
    /** Per app: functional, sampled and full-detail counters. */
    std::vector<bp5::sim::Counters> counts() const;
    /** Sampled-mode counters summed over the apps. */
    bp5::sim::Counters sampledTotal() const;

    void report(Metrics &e2e, Metrics &layer, Metrics &detail) const;

  private:
    struct App;
    void simulateOnce(App &a, bool sampled, double &cpu,
                      bp5::sim::Counters &c);

    uint64_t seed_;
    uint64_t budget_;
    Spans &spans_;
    Outcome &out_;
    std::vector<std::unique_ptr<App>> apps_;
    Samples wall_, functionalMips_, sampledMips_, resetUs_;
    double ipcErrPct_ = 0.0;
};

/** In-process serve::Server fed by this (generator) thread. */
class ServePhase
{
  public:
    ServePhase(uint64_t seed, double openRate, Spans &spans, Outcome &out);
    ~ServePhase();

    /** Standalone reference results of the job mix, a fresh server,
     *  and a discarded warm-up burst. */
    void setup(SetupCosts &costs);

    /** Closed loop: rounds of jobs with a fixed in-flight window. */
    void closedRound();
    /** Open loop: one window of kOpenWindowJobs jobs at the fixed rate,
     *  each timed from when it was due. */
    void openWindow();
    /** Drain the server and check its accounting. */
    void finish();

    size_t rounds() const { return roundRate_.size(); }
    size_t windows() const { return windowP99Ms_.size(); }
    /** Reference counters of the job mix, in mix order. */
    std::vector<bp5::sim::Counters> counts() const;

    void report(Metrics &e2e, Metrics &layer, Metrics &detail) const;

  private:
    struct JobRec;
    struct Pending;

    bp5::serve::JobSpec specAt(uint64_t i) const;
    bool submit(uint64_t i, JobRec &rec);
    void waitFor(uint64_t completed);
    void checkJob(uint64_t i, const JobRec &rec);

    uint64_t seed_;
    double rate_;
    Spans &spans_;
    Outcome &out_;
    std::unique_ptr<bp5::serve::Server> server_;
    std::unique_ptr<Pending> pending_;

    struct Reference
    {
        int64_t score = 0;
        bp5::sim::Counters counters;
    };
    std::vector<Reference> ref_;
    uint64_t nextId_ = 0;
    uint64_t submitted_ = 0;
    uint64_t refused_ = 0;

    Samples roundRate_, roundCpuRate_;
    Samples latencyMs_, lateMs_, submitUs_, waitUs_, holdUs_, serviceUs_;
    Samples windowP99Ms_;
    uint64_t openBatches_ = 0, openSwitches_ = 0;
};

/** The serve job mix: 4 kernels x {Original, comp. max} x 8 seeds. */
constexpr uint64_t kServeMix = 64;

/**
 * Jobs per open-loop window.  serve_p99_ms is the median over windows
 * of each window's exact p99 (ten samples beyond rank 990), so one host
 * stall moves one window, not the reported tail.
 */
constexpr uint64_t kOpenWindowJobs = 1000;

/** Job @p i of the serve mix for benchmark seed @p seed (n = 16). */
bp5::serve::JobSpec serveSpec(uint64_t seed, uint64_t i);

/** The wire request line of @p spec (what serve::parseJobLine reads). */
std::string serveRequestLine(const bp5::serve::JobSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
