/**
 * @file
 * perfbench: the host-performance benchmark of bioperf5.
 *
 *   perfbench --workload timing_sweep|fast_sim|serve_mixed --seed N
 *             --seconds S --trace 0|1 --open-rate R
 *             [--commit SHA] [--trace-out PATH] [--tiny]
 *
 * Every run sets up the three measured paths (phases.h) several times
 * and reports the median set-up time, then spends --seconds on them: the
 * two paths the workload does not name run a fixed number of passes,
 * spread evenly over the run, and the named one fills the rest.  Host
 * noise on a shared machine comes in bursts, so every host time is a
 * quartile or median over many short interleaved passes.  --trace 0
 * prints the end-to-end metrics; --trace 1
 * runs the same session untraced and then traced (each for half of
 * --seconds), checks that both simulate exactly the same counts, probes
 * single layers, writes a Chrome trace-event file and prints the
 * per-layer metrics.
 *
 * Simulated time (instructions, cycles, IPC) repeats exactly for a seed;
 * host time does not.  No error against the paper's POWER5 hardware is
 * reported: only the paper's shapes are claimed.  sampled_ipc_err_pct is
 * measured against this repository's own full-detail model.
 *
 * The last stdout line is the result object:
 *   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "layers.h"

using namespace perfbench;
using namespace bp5;

namespace {

/// A seed never used while the benchmark or any change it measures was
/// tuned: rerun a claimed gain on it before accepting the claim.
constexpr uint64_t kHeldOutSeed = 20070927;

/// Set-up repetitions per session; setup_s is their median.
constexpr int kSetups = 5;
/// Set-up repetitions per session of the traced run, which reports no
/// setup_s but runs two sessions.
constexpr int kTracedSetups = 2;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    double openRate = 0.0;
    std::string commit = "unknown";
    std::string traceOut;
    bool tiny = false;
};

/** Fixed work per pass, and the passes each path must run. */
struct Scale
{
    uint64_t sweepBudget; ///< instructions per grid point
    uint64_t fastBudget;  ///< instructions per app and mode
    uint64_t probeBudget; ///< instructions per layer probe run
    unsigned sweeps;      ///< ExperimentDriver sweeps
    unsigned fastPasses;  ///< 4 apps x {functional, sampled}
    unsigned serveUnits;  ///< 4 closed rounds + 1 open-loop window
    int setups;
};

Scale
scaleFor(bool tiny)
{
    if (tiny)
        return {20'000, 100'000, 50'000, 1, 1, 1, 1};
    return {400'000, 2'000'000, 300'000, 10, 8, 3, kSetups};
}

MainPath
mainPath(const std::string &w)
{
    if (w == "timing_sweep")
        return MainPath::Sweep;
    if (w == "fast_sim")
        return MainPath::Fast;
    return MainPath::Serve;
}

/** Everything one session measured. */
struct Session
{
    Metrics e2e, layer, detail;
    std::vector<sim::Counters> exact; ///< every deterministic count
    sim::Counters mainTotal;          ///< the main path's exact counts
    Samples mainPass; ///< wall seconds per main-path pass, bookkeeping
                      ///< and span recording included
};

Session
runSession(const Options &opts, double seconds, int setups, Spans &spans,
           Outcome &out)
{
    Scale sc = scaleFor(opts.tiny);
    MainPath path = mainPath(opts.workload);
    SweepPhase sweep(opts.seed, sc.sweepBudget, spans, out);
    FastPhase fast(opts.seed, sc.fastBudget, spans, out);
    ServePhase serve(opts.seed, opts.openRate, spans, out);

    // setup_s is process CPU time (all threads: the warm-up sweep and
    // serve burst run on worker and shard threads).  Its wall time, a
    // detail, spread more across runs on a shared host.
    SetupCosts costs;
    Samples setupS, setupWall, inputsMs;
    for (int k = 0; k < setups; ++k) {
        Scope s(spans, "setup", k);
        double t0 = wallNow();
        double c0 = processCpuNow();
        costs.inputsMs = 0.0;
        sweep.setup(costs);
        fast.setup(costs);
        serve.setup(costs);
        setupS.add(processCpuNow() - c0);
        setupWall.add(wallNow() - t0);
        inputsMs.add(costs.inputsMs);
    }
    fast.reference(); // deterministic: not part of any timing

    struct Task
    {
        std::function<void()> run;
        std::function<size_t()> done;
        unsigned min;
    };
    Task sweepTask{[&] { sweep.pass(); }, [&] { return sweep.passes(); },
                   sc.sweeps};
    Task fastTask{[&] { fast.pass(); }, [&] { return fast.passes(); },
                  sc.fastPasses};
    // Four capacity rounds per latency window: serve_jobs_per_s is the
    // gated figure and needs the samples.
    Task serveTask{[&] {
                       for (int k = 0; k < 4; ++k)
                           serve.closedRound();
                       serve.openWindow();
                   },
                   [&] { return serve.windows(); }, sc.serveUnits};
    Task *main = path == MainPath::Sweep  ? &sweepTask
                 : path == MainPath::Fast ? &fastTask
                                          : &serveTask;
    std::vector<Task *> minors;
    for (Task *t : {&sweepTask, &fastTask, &serveTask}) {
        if (t != main)
            minors.push_back(t);
    }

    // A minor task's k-th pass is due at fraction (k + 0.5) / min of the
    // run; the main task runs whenever no minor pass is due, until the
    // deadline and its own minimum are both reached.
    Session ses;
    double start = wallNow();
    for (;;) {
        double frac = (wallNow() - start) / seconds;
        Task *next = nullptr;
        for (Task *t : minors) {
            if (t->done() < t->min &&
                (frac >= 1.0 ||
                 double(t->done()) + 0.5 <= frac * double(t->min))) {
                next = t;
                break;
            }
        }
        if (next == nullptr && (frac < 1.0 || main->done() < main->min))
            next = main;
        if (next == nullptr)
            break;
        double t0 = wallNow();
        next->run();
        if (next == main)
            ses.mainPass.add(wallNow() - t0);
    }

    switch (path) {
    case MainPath::Sweep:
        ses.mainTotal = sumCounters(sweep.counts());
        break;
    case MainPath::Fast:
        ses.mainTotal = fast.sampledTotal();
        break;
    case MainPath::Serve:
        ses.mainTotal = sumCounters(serve.counts());
        break;
    }
    serve.finish();

    sweep.report(ses.e2e, ses.layer, ses.detail);
    fast.report(ses.e2e, ses.layer, ses.detail);
    serve.report(ses.e2e, ses.layer, ses.detail);
    ses.e2e["setup_s"] = {setupS.median(), "s"};
    ses.detail["setup_s.wall"] = {setupWall.median(), "s"};
    ses.e2e["rss_mb"] = {peakRssMb(), "MiB"};
    ses.layer["mpc.compile_us"] = {costs.compileUs.median(), "us"};
    ses.layer["analysis.lint_us"] = {costs.lintUs.median(), "us"};
    ses.layer["kernels.build_us"] = {costs.buildUs.median(), "us"};
    ses.layer["bio.inputs_ms"] = {inputsMs.median(), "ms"};
    ses.detail["setup.repeats"] = {double(setupS.size()), "count"};

    for (const auto &v : {sweep.counts(), fast.counts(), serve.counts()})
        ses.exact.insert(ses.exact.end(), v.begin(), v.end());
    return ses;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const Metrics &m)
{
    std::string o = "{";
    for (const auto &[name, metric] : m) {
        if (o.size() > 1)
            o += ", ";
        o += jsonString(name) + ": {\"value\": " + jsonNumber(metric.value) +
             ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    return o + "}";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
provenanceJson(const Options &o)
{
    Scale sc = scaleFor(o.tiny);
    return "{\"provenance\": {\"nproc\": " +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"cpu_model\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(std::string("g++ ") + __VERSION__) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"git_commit\": " + jsonString(o.commit) +
           ", \"workload\": " + jsonString(o.workload) +
           ", \"seed\": " + std::to_string(o.seed) +
           ", \"held_out_seed\": " + std::to_string(kHeldOutSeed) +
           ", \"seconds\": " + jsonNumber(o.seconds) +
           ", \"trace\": " + std::to_string(o.trace) +
           ", \"open_rate\": " + jsonNumber(o.openRate) +
           ", \"sweep_budget\": " + std::to_string(sc.sweepBudget) +
           ", \"fast_budget\": " + std::to_string(sc.fastBudget) +
           ", \"tiny\": " + (o.tiny ? "true" : "false") +
           ", \"note\": " +
           jsonString("simulated counts (instructions, cycles, IPC) repeat "
                      "exactly for a seed; host times do not and are "
                      "medians or quartiles over many passes. No error "
                      "against the paper's hardware is claimed; "
                      "sampled_ipc_err_pct is against this repository's "
                      "own full-detail model.") +
           "}}";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload timing_sweep|fast_sim|"
                 "serve_mixed --seed N --seconds S --trace 0|1 "
                 "--open-rate R [--commit SHA] [--trace-out PATH] "
                 "[--tiny]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string val;
        size_t eq = key.find('=');
        if (eq != std::string::npos) {
            val = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (key != "--tiny") {
            if (i + 1 >= argc)
                usage(("missing value for " + key).c_str());
            val = argv[++i];
        }
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = std::atoi(val.c_str());
        else if (key == "--open-rate")
            o.openRate = std::strtod(val.c_str(), nullptr);
        else if (key == "--commit")
            o.commit = val;
        else if (key == "--trace-out")
            o.traceOut = val;
        else if (key == "--tiny")
            o.tiny = true;
        else
            usage(("unknown argument " + key).c_str());
    }
    if (o.workload != "timing_sweep" && o.workload != "fast_sim" &&
        o.workload != "serve_mixed")
        usage("unknown workload");
    if (!(o.seconds > 0.0) || (o.trace != 0 && o.trace != 1) ||
        !(o.openRate > 0.0))
        usage("--seconds and --open-rate must be positive, --trace 0 or 1");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    std::printf("%s\n", provenanceJson(opts).c_str());
    std::fflush(stdout);

    Outcome out;
    Metrics metrics, detail;
    if (opts.trace == 0) {
        Spans off(false);
        Session s = runSession(opts, opts.seconds, scaleFor(opts.tiny).setups,
                               off, out);
        metrics = s.e2e;
        detail = s.detail;
    } else {
        int setups = std::min(kTracedSetups, scaleFor(opts.tiny).setups);
        Spans off(false);
        Session plain = runSession(opts, opts.seconds / 2, setups, off, out);
        Spans on(true);
        Session traced = runSession(opts, opts.seconds / 2, setups, on, out);
        out.check(plain.exact == traced.exact,
                  "traced run simulated different counts than untraced");
        metrics = traced.layer;
        detail = traced.detail;
        Scale sc = scaleFor(opts.tiny);
        measureLayers(opts.seed, mainPath(opts.workload), sc.probeBudget,
                      on, out, metrics, detail);
        addSimCounts(metrics, plain.mainTotal);
        // Whole main-path passes: on serve_mixed a pass is four closed
        // rounds plus an open-loop window with its per-job span recording.
        metrics["trace.overhead_pct"] = {
            100.0 * (traced.mainPass.median() / plain.mainPass.median() -
                     1.0),
            "%"};

        std::string self = "{";
        for (const auto &[name, ms] : on.selfTimeMs()) {
            self += (self.size() > 1 ? ", " : "") + jsonString(name) + ": " +
                    jsonNumber(ms);
        }
        std::printf("{\"self_time_ms\": %s}\n", (self + "}").c_str());
        if (!opts.traceOut.empty()) {
            out.check(on.write(opts.traceOut),
                      "cannot write trace file " + opts.traceOut);
            detail["trace.spans"] = {double(on.size()), "count"};
        }
        metrics["fail_frac"] = {double(out.failed) / double(out.attempted),
                                "ratio"};
    }

    std::string errors = "[";
    for (const std::string &e : out.errors)
        errors += (errors.size() > 1 ? ", " : "") + jsonString(e);
    std::printf("{\"detail\": %s, \"errors\": %s]}\n",
                metricsJson(detail).c_str(), errors.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.failed == 0 ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed,
                metricsJson(metrics).c_str());
    return 0;
}
