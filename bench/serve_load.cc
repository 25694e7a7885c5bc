/**
 * @file
 * serve_load: load generator and tail-latency bench for bp5-serve.
 *
 * Pumps a deterministic stream of synthetic jobs — a mix of the four
 * paper kernels across seeds and two code variants, so shards see
 * real batching pressure — through either an in-process serve::Server
 * (the BENCH_serve.json perf-trajectory mode) or a running daemon's
 * Unix socket (the CI smoke mode), and reports throughput plus
 * p50/p95/p99 latency from support::Log2Histogram.
 *
 *   serve_load --jobs=100000 --bench --json  > BENCH_serve_new.json
 *   serve_load --socket=/tmp/bp5.sock --jobs=10000 [--shutdown]
 *
 * Arrival control: --rate=R paces admissions at R jobs/s (0 = open
 * loop); --window=W caps in-flight jobs in socket mode (closed-loop
 * load, keeps a well-sized daemon queue from rejecting).  --bench
 * runs two phases and emits both as rows of one document: an
 * open-loop phase (mode "open", the throughput number) and a phase
 * paced at half the measured capacity (mode "paced") — open-loop p99
 * is all queue wait and says nothing about the server, while p99 at a
 * fixed utilization is a meaningful tail-latency SLO on any host.
 * Exit status is nonzero when any job fails or any result is dropped.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "support/result.h"

using namespace bp5;

namespace {

struct Options
{
    uint64_t jobs = 100000;
    double rate = 0.0;      ///< arrival rate, jobs/s (0 = open loop)
    std::string socketPath; ///< empty = in-process server
    unsigned shards = 0;
    size_t queueDepth = 4096;
    unsigned batchMax = 32;
    unsigned n = 16;     ///< problem scale
    unsigned seeds = 8;  ///< distinct input seeds in the mix
    uint64_t window = 1024; ///< max in-flight (socket mode)
    std::string manifestPath;
    bool shutdownDaemon = false;
    bool bench = false;
    bool json = false;
};

void
usage()
{
    std::fputs(
        "usage: serve_load [--jobs=N] [--rate=R] [--n=N] [--seeds=K]\n"
        "                  [--json]\n"
        "  in-process: [--shards=N] [--queue-depth=N] [--batch=N]\n"
        "              [--manifest=PATH] [--bench]\n"
        "  socket:     --socket=PATH [--window=W] [--shutdown]\n",
        stderr);
}

/** The deterministic job mix: kernels x variants x seeds. */
serve::JobSpec
jobAt(uint64_t i, const Options &opts)
{
    static const kernels::KernelKind kKinds[] = {
        kernels::KernelKind::ForwardPass,
        kernels::KernelKind::Dropgsw,
        kernels::KernelKind::P7Viterbi,
        kernels::KernelKind::SemiGAlign,
    };
    serve::JobSpec spec;
    spec.id = i;
    spec.kind = kKinds[i % 4];
    spec.variant = (i / 4) % 2 == 0 ? mpc::Variant::Baseline
                                    : mpc::Variant::CompMax;
    spec.machine = sim::MachineConfig::power5Baseline();
    spec.seed = 1 + (i % opts.seeds);
    spec.n = opts.n;
    return spec;
}

/** The request line for @p spec (inverse of serve::parseJobLine). */
std::string
jobLine(const serve::JobSpec &spec, const Options &opts)
{
    return strprintf("{\"id\": %llu, \"kernel\": \"%s\", "
                     "\"variant\": \"%s\", \"seed\": %llu, "
                     "\"n\": %u}\n",
                     (unsigned long long)spec.id,
                     kernels::kernelName(spec.kind),
                     mpc::variantName(spec.variant),
                     (unsigned long long)spec.seed, opts.n);
}

/** Sleep until job @p i's scheduled arrival under --rate pacing. */
void
paceArrival(uint64_t i, double rate,
            std::chrono::steady_clock::time_point t0)
{
    if (rate <= 0.0)
        return;
    auto due = t0 + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(double(i) / rate));
    std::this_thread::sleep_until(due);
}

/** Measured outcome of one load run. */
struct LoadReport
{
    uint64_t jobs = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;
    double wallSeconds = 0.0;
    support::Log2Histogram latencyUs;
};

support::ResultRow
reportRow(const LoadReport &r, const std::string &mode,
          const Options &opts, double rate)
{
    support::ResultRow row;
    row.set("workload", "serve_mixed")
        .set("mode", mode)
        .set("jobs", r.jobs)
        .set("completed", r.completed)
        .set("failed", r.failed)
        .set("rejected", r.rejected)
        .set("n", opts.n)
        .set("seeds", opts.seeds)
        .set("rate", rate, 1)
        .set("wall_s", r.wallSeconds, 3)
        .set("jobs_per_s",
             r.wallSeconds > 0.0 ? double(r.completed) / r.wallSeconds
                                 : 0.0,
             1)
        .set("p50_us", r.latencyUs.percentile(50))
        .set("p95_us", r.latencyUs.percentile(95))
        .set("p99_us", r.latencyUs.percentile(99))
        .set("mean_us", r.latencyUs.mean(), 1);
    return row;
}

void
printRows(const std::vector<support::ResultRow> &rows,
          const support::Log2Histogram &latencyUs, const Options &opts)
{
    if (opts.json) {
        std::fputs(support::emitJsonLine(rows, "serve-load").c_str(),
                   stdout);
    } else {
        std::fputs(support::emitText(rows, "serve_load").c_str(),
                   stdout);
        std::fputs("\nlatency histogram (us):\n", stdout);
        std::fputs(latencyUs.toText().c_str(), stdout);
    }
}

/** Nonzero exit when jobs were dropped or failed. */
int
verdict(const LoadReport &r)
{
    uint64_t dropped = r.jobs - r.completed - r.failed - r.rejected;
    if (dropped != 0 || r.failed != 0) {
        std::fprintf(stderr,
                     "serve_load: FAILED: %llu dropped, %llu failed\n",
                     (unsigned long long)dropped,
                     (unsigned long long)r.failed);
        return 1;
    }
    return 0;
}

/** Drive an in-process Server once at @p rate (0 = open loop). */
LoadReport
runInprocOnce(const Options &opts, double rate)
{
    serve::ServerConfig cfg;
    cfg.shards = opts.shards;
    cfg.queueDepth = opts.queueDepth;
    cfg.batchMax = opts.batchMax;
    cfg.manifestPath = opts.manifestPath;
    serve::Server server(cfg);

    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> failed{0};

    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < opts.jobs; ++i) {
        paceArrival(i, rate, t0);
        // Blocking admission: the bench measures service capacity, so
        // backpressure (not rejection) on a saturated queue.
        server.submit(
            jobAt(i, opts),
            [&](const serve::JobResult &r) {
                if (r.ok)
                    completed.fetch_add(1, std::memory_order_relaxed);
                else
                    failed.fetch_add(1, std::memory_order_relaxed);
            },
            /*block=*/true);
    }
    server.drain();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    LoadReport rep;
    rep.jobs = opts.jobs;
    rep.completed = completed.load();
    rep.failed = failed.load();
    rep.rejected = server.stats().rejected;
    rep.wallSeconds = wall;
    rep.latencyUs = server.latencyHistogram();
    return rep;
}

/** Single in-process run at --rate. */
int
runInproc(const Options &opts)
{
    LoadReport rep = runInprocOnce(opts, opts.rate);
    printRows({reportRow(rep, opts.rate > 0.0 ? "paced" : "open", opts,
                         opts.rate)},
              rep.latencyUs, opts);
    return verdict(rep);
}

/**
 * The BENCH_serve.json trajectory: an open-loop phase for throughput,
 * then a phase paced at half the measured capacity whose p99 is a
 * host-portable tail-latency SLO.
 */
int
runBench(const Options &opts)
{
    LoadReport open = runInprocOnce(opts, 0.0);
    double capacity = open.wallSeconds > 0.0
                          ? double(open.completed) / open.wallSeconds
                          : 0.0;
    double pacedRate = capacity / 2.0;
    if (pacedRate <= 0.0)
        fatal("open-loop phase completed no jobs");
    LoadReport paced = runInprocOnce(opts, pacedRate);

    printRows({reportRow(open, "open", opts, 0.0),
               reportRow(paced, "paced", opts, pacedRate)},
              paced.latencyUs, opts);
    int rc = verdict(open);
    return rc != 0 ? rc : verdict(paced);
}

/** Drive a running daemon over its Unix socket (the CI smoke mode). */
int
runSocket(const Options &opts)
{
    std::string err;
    int fd = serve::unixConnect(opts.socketPath, err);
    if (fd < 0)
        fatal("%s", err.c_str());

    std::mutex mu;
    std::condition_variable windowCv;
    bool daemonGone = false;
    uint64_t inflight = 0;
    uint64_t received = 0, completed = 0, failed = 0, rejected = 0;
    support::Log2Histogram latencyUs;
    std::vector<std::chrono::steady_clock::time_point> sent(opts.jobs);

    auto t0 = std::chrono::steady_clock::now();

    // Reader: one response line per job, matched to its send time by
    // id.  Runs concurrently with the writer to keep the window full.
    std::thread reader([&] {
        serve::LineReader lines(fd);
        std::string line;
        while (received < opts.jobs && lines.readLine(line)) {
            if (line.empty())
                continue;
            obs::JsonValue doc;
            std::string perr;
            if (!obs::parseJson(line, doc, perr) || !doc.isObject()) {
                warn("bad response line: %s", perr.c_str());
                continue;
            }
            const obs::JsonValue *ok = doc.find("ok");
            const obs::JsonValue *id = doc.find("id");
            auto now = std::chrono::steady_clock::now();
            std::lock_guard<std::mutex> lock(mu);
            ++received;
            if (ok != nullptr && ok->isBool() && ok->boolean) {
                ++completed;
                if (id != nullptr && id->isNumber() &&
                    uint64_t(id->number) < opts.jobs) {
                    latencyUs.add(uint64_t(
                        std::chrono::duration<double, std::micro>(
                            now - sent[size_t(id->number)])
                            .count()));
                }
            } else {
                const obs::JsonValue *e =
                    doc.isObject() ? doc.find("error") : nullptr;
                bool queueFull = e != nullptr && e->isString() &&
                                 e->str.find("queue full") !=
                                     std::string::npos;
                if (queueFull)
                    ++rejected;
                else
                    ++failed;
            }
            --inflight;
            windowCv.notify_one();
        }
        std::lock_guard<std::mutex> lock(mu);
        if (received < opts.jobs)
            daemonGone = true; // EOF before all responses arrived
        windowCv.notify_all();
    });

    for (uint64_t i = 0; i < opts.jobs; ++i) {
        paceArrival(i, opts.rate, t0);
        {
            // Closed-loop window: never more than --window jobs
            // outstanding, so a sanely provisioned daemon queue does
            // not reject (rejections are still counted if they come).
            std::unique_lock<std::mutex> lock(mu);
            windowCv.wait(lock, [&] {
                return daemonGone || inflight < opts.window;
            });
            if (daemonGone) {
                lock.unlock();
                reader.join();
                fatal("daemon closed the connection after %llu of "
                      "%llu responses",
                      (unsigned long long)received,
                      (unsigned long long)opts.jobs);
            }
            ++inflight;
            sent[i] = std::chrono::steady_clock::now();
        }
        if (!serve::writeAll(fd, jobLine(jobAt(i, opts), opts)))
            fatal("short write to %s (daemon gone?)",
                  opts.socketPath.c_str());
    }

    reader.join();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    if (opts.shutdownDaemon) {
        serve::writeAll(fd, "{\"cmd\": \"shutdown\"}\n");
        serve::LineReader lines(fd);
        std::string ack;
        lines.readLine(ack); // daemon acks before draining
    }
    serve::closeFd(fd);

    LoadReport rep;
    rep.jobs = opts.jobs;
    rep.completed = completed;
    rep.failed = failed;
    rep.rejected = rejected;
    rep.wallSeconds = wall;
    rep.latencyUs = latencyUs;
    printRows({reportRow(rep, "socket", opts, opts.rate)},
              rep.latencyUs, opts);
    return verdict(rep);
}

bool
parseArg(const char *arg, const char *name, std::string &out)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

/** A numeric flag; a malformed value is fatal. */
template <typename T>
bool
parseArg(const char *arg, const char *name, T &out)
{
    std::string s;
    if (!parseArg(arg, name, s))
        return false;
    if (!parseNumber(s, out, 0))
        fatal("bad value for %s: '%s'", name, s.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (parseArg(arg, "--socket", opts.socketPath) ||
            parseArg(arg, "--manifest", opts.manifestPath) ||
            parseArg(arg, "--jobs", opts.jobs) ||
            parseArg(arg, "--rate", opts.rate) ||
            parseArg(arg, "--shards", opts.shards) ||
            parseArg(arg, "--n", opts.n)) {
            continue;
        } else if (parseArg(arg, "--queue-depth", opts.queueDepth)) {
            if (opts.queueDepth == 0)
                fatal("--queue-depth must be positive");
        } else if (parseArg(arg, "--batch", opts.batchMax)) {
            if (opts.batchMax == 0)
                fatal("--batch must be positive");
        } else if (parseArg(arg, "--seeds", opts.seeds)) {
            if (opts.seeds == 0)
                fatal("--seeds must be positive");
        } else if (parseArg(arg, "--window", opts.window)) {
            if (opts.window == 0)
                fatal("--window must be positive");
        } else if (std::strcmp(arg, "--shutdown") == 0) {
            opts.shutdownDaemon = true;
        } else if (std::strcmp(arg, "--bench") == 0) {
            opts.bench = true;
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.json = true;
        } else {
            usage();
            fatal("unknown argument '%s'", arg);
        }
    }
    std::signal(SIGPIPE, SIG_IGN);
    if (!opts.socketPath.empty()) {
        if (opts.bench)
            fatal("--bench is an in-process mode (drop --socket)");
        return runSocket(opts);
    }
    return opts.bench ? runBench(opts) : runInproc(opts);
}
