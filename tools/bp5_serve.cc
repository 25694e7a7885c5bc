/**
 * @file
 * bp5-serve: sharded batch-serving daemon for alignment/simulation
 * jobs.  Accepts line-delimited JSON job requests — over a Unix-domain
 * stream socket or from a file — and schedules them across a pool of
 * reusable simulated machines (see src/serve/).
 *
 *   bp5-serve --socket=/tmp/bp5.sock [--shards=N] [--queue-depth=N]
 *             [--batch=N] [--manifest=PATH]
 *   bp5-serve --jobs=FILE [--results=PATH] [--json] ...
 *
 * Socket protocol: each request line yields exactly one response line
 * on the same connection (see src/serve/job.h for the grammar).  Two
 * control commands ride the same channel:
 *
 *   {"cmd": "stats"}     -> one stats snapshot line
 *   {"cmd": "shutdown"}  -> ack line; the daemon stops accepting,
 *                           drains queued and in-flight jobs, and
 *                           exits 0 (graceful drain; SIGINT/SIGTERM
 *                           do the same)
 *
 * Admission control is reject-with-error: when the bounded queue is
 * full, the job is answered immediately with
 * {"ok": false, "error": "queue full ..."} instead of queuing.  The
 * offline --jobs mode uses blocking admission (backpressure) instead,
 * so a file of N jobs always yields N results.
 */

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <sys/resource.h>
#include <sys/socket.h>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/logging.h"

using namespace bp5;

namespace {

struct Options
{
    std::string socketPath;
    std::string jobsFile;
    std::string resultsPath;
    std::string manifestPath;
    unsigned shards = 0;
    size_t queueDepth = 1024;
    unsigned batchMax = 32;
    bool json = false;
};

void
usage()
{
    std::fputs(
        "usage: bp5-serve --socket=PATH [--shards=N] [--queue-depth=N]\n"
        "                 [--batch=N] [--manifest=PATH]\n"
        "       bp5-serve --jobs=FILE [--results=PATH] [--json]\n"
        "                 [--shards=N] [--queue-depth=N] [--batch=N]\n"
        "                 [--manifest=PATH]\n",
        stderr);
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

/** The listening socket, reachable from the signal handler. */
std::atomic<int> gListenFd{-1};

void
onSignal(int)
{
    int fd = gListenFd.load(std::memory_order_relaxed);
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR); // async-signal-safe; unblocks accept
}

/** Stats snapshot as one response line. */
std::string
statsLine(const serve::Server &server)
{
    serve::ServerStats s = server.stats();
    return strprintf("{\"ok\": true, \"accepted\": %llu, "
                     "\"rejected\": %llu, \"completed\": %llu, "
                     "\"failed\": %llu, \"batches\": %llu, "
                     "\"config_switches\": %llu, \"queued\": %llu}\n",
                     (unsigned long long)s.accepted,
                     (unsigned long long)s.rejected,
                     (unsigned long long)s.completed,
                     (unsigned long long)s.failed,
                     (unsigned long long)s.batches,
                     (unsigned long long)s.configSwitches,
                     (unsigned long long)(s.accepted - s.completed -
                                          s.failed));
}

/**
 * The server's summary row plus this process's peak resident set
 * (getrusage ru_maxrss, KiB on Linux), which the pooled machines'
 * tables dominate.
 */
support::ResultRow
summaryRow(const serve::Server &server)
{
    support::ResultRow row = server.summaryRow();
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    row.set("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, 1);
    return row;
}

/**
 * One client connection.  Kept alive (fd open) until every job this
 * connection admitted has been answered, so shard-thread callbacks
 * never write to a recycled descriptor.
 */
struct Conn
{
    explicit Conn(int fd) : fd(fd) {}

    void
    send(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(writeMu);
        serve::writeAll(fd, line); // peer may be gone; best effort
    }

    void
    jobDone()
    {
        std::lock_guard<std::mutex> lock(writeMu);
        if (--pending == 0)
            idle.notify_all();
    }

    void
    waitIdle()
    {
        std::unique_lock<std::mutex> lock(writeMu);
        idle.wait(lock, [this] { return pending == 0; });
    }

    int fd;
    std::mutex writeMu;
    std::condition_variable idle;
    uint64_t pending = 0; ///< admitted jobs not yet answered
};

/** True when @p line is a control command ("cmd" present). */
bool
controlCommand(const std::string &line, std::string &cmd)
{
    obs::JsonValue doc;
    std::string err;
    if (!obs::parseJson(line, doc, err) || !doc.isObject())
        return false;
    const obs::JsonValue *v = doc.find("cmd");
    if (v == nullptr || !v->isString())
        return false;
    cmd = v->str;
    return true;
}

/** Serve one connection; returns when the client disconnects. */
void
serveConnection(std::shared_ptr<Conn> conn, serve::Server &server,
                std::atomic<bool> &shutdownRequested)
{
    serve::LineReader reader(conn->fd);
    std::string line;
    while (reader.readLine(line)) {
        if (line.empty())
            continue;

        std::string cmd;
        if (controlCommand(line, cmd)) {
            if (cmd == "stats") {
                conn->send(statsLine(server));
            } else if (cmd == "shutdown") {
                conn->send("{\"ok\": true, \"draining\": true}\n");
                shutdownRequested.store(true);
                onSignal(0); // unblock the accept loop
            } else {
                conn->send(serve::resultLine(serve::errorResult(
                    0, "unknown command '" + cmd + "'")));
            }
            continue;
        }

        serve::JobSpec spec;
        std::string err;
        if (!serve::parseJobLine(line, spec, err)) {
            conn->send(serve::resultLine(serve::errorResult(0, err)));
            continue;
        }

        {
            std::lock_guard<std::mutex> lock(conn->writeMu);
            ++conn->pending;
        }
        bool admitted = server.submit(
            spec,
            [conn](const serve::JobResult &r) {
                conn->send(serve::resultLine(r));
                conn->jobDone();
            },
            /*block=*/false);
        if (!admitted) {
            conn->send(serve::resultLine(serve::errorResult(
                spec.id,
                strprintf("queue full (depth %zu), job rejected",
                          server.config().queueDepth))));
            conn->jobDone();
        }
    }
    // EOF from the client: answer everything already admitted before
    // letting the descriptor go.
    conn->waitIdle();
    serve::closeFd(conn->fd);
}

int
runSocket(const Options &opts)
{
    serve::ServerConfig cfg;
    cfg.shards = opts.shards;
    cfg.queueDepth = opts.queueDepth;
    cfg.batchMax = opts.batchMax;
    cfg.manifestPath = opts.manifestPath;
    serve::Server server(cfg);

    serve::UnixListener listener;
    std::string err;
    if (!listener.listen(opts.socketPath, err))
        fatal("%s", err.c_str());
    gListenFd.store(listener.fd());
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    inform("bp5-serve: listening on %s (%u shards, queue depth %zu, "
           "batch %u)",
           opts.socketPath.c_str(), server.shards(), cfg.queueDepth,
           cfg.batchMax);

    std::atomic<bool> shutdownRequested{false};
    std::vector<std::thread> connThreads;
    std::vector<std::weak_ptr<Conn>> conns;
    std::mutex connsMu;

    for (;;) {
        int fd = listener.accept();
        if (fd < 0)
            break; // shut down (signal or shutdown command)
        auto conn = std::make_shared<Conn>(fd);
        {
            std::lock_guard<std::mutex> lock(connsMu);
            conns.push_back(conn);
        }
        connThreads.emplace_back([conn, &server, &shutdownRequested] {
            serveConnection(conn, server, shutdownRequested);
        });
    }

    gListenFd.store(-1);
    listener.close();

    // Stop admitting and let queued + in-flight jobs complete; their
    // responses still flow to the (still-open) connections.
    server.drain();

    // Unblock connection readers whose clients are idle but attached.
    {
        std::lock_guard<std::mutex> lock(connsMu);
        for (auto &weak : conns) {
            if (auto conn = weak.lock())
                ::shutdown(conn->fd, SHUT_RD);
        }
    }
    for (std::thread &t : connThreads)
        t.join();

    serve::ServerStats s = server.stats();
    inform("bp5-serve: drained: %llu completed, %llu rejected, "
           "%llu failed",
           (unsigned long long)s.completed,
           (unsigned long long)s.rejected, (unsigned long long)s.failed);
    if (opts.json) {
        std::string out =
            support::emitJsonLine({summaryRow(server)}, "serve-summary");
        std::fputs(out.c_str(), stdout);
    }
    return s.failed == 0 ? 0 : 1;
}

int
runOffline(const Options &opts)
{
    std::ifstream in(opts.jobsFile);
    if (!in)
        fatal("cannot open jobs file %s", opts.jobsFile.c_str());

    FILE *out = stdout;
    if (!opts.resultsPath.empty() && opts.resultsPath != "-") {
        out = std::fopen(opts.resultsPath.c_str(), "w");
        if (out == nullptr)
            fatal("cannot open results file %s",
                  opts.resultsPath.c_str());
    }

    serve::ServerConfig cfg;
    cfg.shards = opts.shards;
    cfg.queueDepth = opts.queueDepth;
    cfg.batchMax = opts.batchMax;
    cfg.manifestPath = opts.manifestPath;
    serve::Server server(cfg);

    std::mutex outMu;
    auto emit = [&](const serve::JobResult &r) {
        std::string line = serve::resultLine(r);
        std::lock_guard<std::mutex> lock(outMu);
        std::fwrite(line.data(), 1, line.size(), out);
    };

    std::string line;
    uint64_t malformed = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        serve::JobSpec spec;
        std::string err;
        if (!serve::parseJobLine(line, spec, err)) {
            ++malformed;
            emit(serve::errorResult(0, err));
            continue;
        }
        // Blocking admission: a job file is a closed workload, so
        // backpressure (not rejection) is the right admission policy.
        server.submit(spec, emit, /*block=*/true);
    }
    server.drain();

    if (out != stdout)
        std::fclose(out);

    serve::ServerStats s = server.stats();
    inform("bp5-serve: %llu completed, %llu failed, %llu malformed",
           (unsigned long long)s.completed, (unsigned long long)s.failed,
           (unsigned long long)malformed);
    if (opts.json) {
        std::string doc =
            support::emitJsonLine({summaryRow(server)}, "serve-summary");
        std::fputs(doc.c_str(), stdout);
    }
    return s.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (parseArg(arg, "--socket", opts.socketPath) ||
            parseArg(arg, "--jobs", opts.jobsFile) ||
            parseArg(arg, "--results", opts.resultsPath) ||
            parseArg(arg, "--manifest", opts.manifestPath) ||
            parseArg(arg, "--shards", opts.shards)) {
            continue;
        } else if (parseArg(arg, "--queue-depth", opts.queueDepth)) {
            if (opts.queueDepth == 0)
                fatal("--queue-depth must be positive");
        } else if (parseArg(arg, "--batch", opts.batchMax)) {
            if (opts.batchMax == 0)
                fatal("--batch must be positive");
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.json = true;
        } else {
            usage();
            fatal("unknown argument '%s'", arg);
        }
    }
    if (opts.socketPath.empty() == opts.jobsFile.empty()) {
        usage();
        fatal("exactly one of --socket and --jobs is required");
    }
    return opts.socketPath.empty() ? runOffline(opts) : runSocket(opts);
}
