/**
 * @file
 * The serving layer's queue/service contract:
 *
 *  - BoundedQueue admission control (try-push fails at capacity, never
 *    blocks) and close-then-drain end-of-stream semantics;
 *  - job-line protocol parsing (round trips, defaults, readable
 *    errors) and response formatting;
 *  - Server admission rejection when the queue is full, graceful
 *    drain completing every admitted job, and — the load-bearing
 *    pin — batched shard-served results bit-identical (score and the
 *    full Counters struct) to a standalone run on a freshly
 *    constructed KernelMachine;
 *  - concurrent submitters, exercised under TSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/job.h"
#include "serve/queue.h"
#include "serve/server.h"

namespace bp5 {
namespace {

// ---------------------------------------------------------------------
// BoundedQueue.
// ---------------------------------------------------------------------

TEST(BoundedQueue, TryPushRejectsAtCapacity)
{
    serve::BoundedQueue<int> q(2);
    EXPECT_EQ(q.capacity(), 2u);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)); // full: admission control kicks in
    EXPECT_EQ(q.size(), 2u);

    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1); // FIFO
    EXPECT_TRUE(q.tryPush(3)); // space freed
    EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, CloseDrainsThenEndsStream)
{
    serve::BoundedQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.tryPush(3)); // no admission after close
    EXPECT_FALSE(q.push(3));    // blocking push fails too, immediately

    int v = 0;
    EXPECT_TRUE(q.pop(v)); // queued work still completes
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v)); // end of stream
}

TEST(BoundedQueue, PopBatchRespectsMax)
{
    serve::BoundedQueue<int> q(16);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.tryPush(i));
    std::vector<int> batch;
    EXPECT_EQ(q.popBatch(batch, 4), 4u);
    ASSERT_EQ(batch.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(batch[size_t(i)], i);
    batch.clear();
    EXPECT_EQ(q.popBatch(batch, 100), 6u); // the rest, not more
    q.close();
    batch.clear();
    EXPECT_EQ(q.popBatch(batch, 4), 0u); // closed and drained
}

TEST(BoundedQueue, BlockedProducerWakesOnSpaceAndOnClose)
{
    serve::BoundedQueue<int> q(1);
    EXPECT_TRUE(q.push(1));

    std::atomic<int> pushed{0};
    std::thread producer([&] {
        if (q.push(2))
            pushed = 1;  // unblocked by the pop below
        if (!q.push(3))
            pushed = 2;  // unblocked (with failure) by close()
    });
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    while (pushed.load() == 0)
        std::this_thread::yield();
    EXPECT_EQ(pushed.load(), 1);
    q.close();
    producer.join();
    EXPECT_EQ(pushed.load(), 2);
}

// ---------------------------------------------------------------------
// Job protocol.
// ---------------------------------------------------------------------

TEST(JobProtocol, MinimalLineGetsDefaults)
{
    serve::JobSpec spec;
    std::string err;
    ASSERT_TRUE(serve::parseJobLine(R"({"id": 7, "kernel": "dropgsw"})",
                                    spec, err))
        << err;
    EXPECT_EQ(spec.id, 7u);
    EXPECT_EQ(spec.kind, kernels::KernelKind::Dropgsw);
    EXPECT_EQ(spec.variant, mpc::Variant::Baseline);
    EXPECT_EQ(spec.machine, sim::MachineConfig::power5Baseline());
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.n, 16u);
}

TEST(JobProtocol, FullLineAndAppAlias)
{
    serve::JobSpec spec;
    std::string err;
    ASSERT_TRUE(serve::parseJobLine(
        R"({"id": 2, "app": "hmmer", "variant": "comp. max",)"
        R"( "machine": "enhanced", "memsys": "lsq", "seed": 9, "n": 32})",
        spec, err))
        << err;
    EXPECT_EQ(spec.kind, kernels::KernelKind::P7Viterbi);
    EXPECT_EQ(spec.variant, mpc::Variant::CompMax);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_EQ(spec.n, 32u);
    sim::MachineConfig want = sim::MachineConfig::power5Enhanced();
    want.memsys.mode = sim::MemSysParams::Mode::Lsq;
    EXPECT_EQ(spec.machine, want);
}

TEST(JobProtocol, ReadableErrors)
{
    serve::JobSpec spec;
    std::string err;
    struct Case
    {
        const char *line;
        const char *needle;
    } cases[] = {
        {"not json", "JSON"},
        {R"([1, 2])", "not a JSON object"},
        {R"({"id": 1})", "missing 'kernel'"},
        {R"({"kernel": "nosuch"})", "unknown kernel/app 'nosuch'"},
        {R"({"kernel": "dropgsw", "variant": "warp"})",
         "unknown variant 'warp'"},
        {R"({"kernel": "dropgsw", "machine": "power9"})",
         "unknown machine 'power9'"},
        {R"({"kernel": "dropgsw", "memsys": "tso"})",
         "unknown memsys 'tso'"},
        {R"({"kernel": "dropgsw", "n": 1})", "'n' must be"},
        {R"({"kernel": "dropgsw", "n": 99999})", "'n' must be"},
        {R"({"kernel": "dropgsw", "id": -4})", "'id' must be"},
        {R"({"kernel": "dropgsw", "color": "red"})",
         "unknown job field 'color'"},
    };
    for (const Case &c : cases) {
        err.clear();
        EXPECT_FALSE(serve::parseJobLine(c.line, spec, err)) << c.line;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.line << " -> " << err;
    }
}

TEST(JobProtocol, ResultLinesAreOneLineJson)
{
    serve::JobResult ok;
    ok.id = 3;
    ok.ok = true;
    ok.score = -12;
    ok.counters.instructions = 100;
    ok.counters.cycles = 200;
    std::string line = serve::resultLine(ok);
    EXPECT_NE(line.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(line.find("\"score\": -12"), std::string::npos);
    EXPECT_NE(line.find("\"ipc\": 0.50"), std::string::npos);
    EXPECT_EQ(line.find('\n'), line.size() - 1);

    // Error text with quotes must come out escaped, still one line.
    std::string bad = serve::resultLine(
        serve::errorResult(4, "unknown variant '\"x\"'\n"));
    EXPECT_NE(bad.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(bad.find("\\\"x\\\""), std::string::npos);
    EXPECT_NE(bad.find("\\n"), std::string::npos);
    EXPECT_EQ(bad.find('\n'), bad.size() - 1);
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

serve::JobSpec
quickJob(uint64_t id, kernels::KernelKind kind, mpc::Variant variant,
         uint64_t seed = 1, unsigned n = 8)
{
    serve::JobSpec spec;
    spec.id = id;
    spec.kind = kind;
    spec.variant = variant;
    spec.machine = sim::MachineConfig::power5Baseline();
    spec.seed = seed;
    spec.n = n;
    return spec;
}

TEST(Server, RejectsWhenQueueFullAndServesTheRest)
{
    serve::ServerConfig cfg;
    cfg.shards = 1;
    cfg.queueDepth = 2;
    cfg.batchMax = 1;
    serve::Server server(cfg);

    // Park the single shard inside a completion callback so the queue
    // state below is deterministic.
    std::mutex mu;
    std::condition_variable cv;
    bool parked = false, release = false;
    ASSERT_TRUE(server.submit(
        quickJob(1, kernels::KernelKind::Dropgsw, mpc::Variant::Baseline),
        [&](const serve::JobResult &) {
            std::unique_lock<std::mutex> lock(mu);
            parked = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        }));
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return parked; });
    }

    // Shard blocked, queue empty: exactly queueDepth more jobs fit.
    std::atomic<uint64_t> doneCount{0};
    auto countDone = [&](const serve::JobResult &r) {
        EXPECT_TRUE(r.ok) << r.error;
        ++doneCount;
    };
    EXPECT_TRUE(server.submit(
        quickJob(2, kernels::KernelKind::Dropgsw, mpc::Variant::Baseline),
        countDone));
    EXPECT_TRUE(server.submit(
        quickJob(3, kernels::KernelKind::Dropgsw, mpc::Variant::Baseline),
        countDone));
    EXPECT_FALSE(server.submit(
        quickJob(4, kernels::KernelKind::Dropgsw, mpc::Variant::Baseline),
        countDone)); // admission control: queue full

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    server.drain();

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.accepted, 3u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(doneCount.load(), 2u);

    // Draining: all further admission fails, blocking or not.
    EXPECT_FALSE(server.submit(
        quickJob(5, kernels::KernelKind::Dropgsw, mpc::Variant::Baseline),
        countDone, /*block=*/true));
}

TEST(Server, DrainCompletesEveryAdmittedJob)
{
    serve::ServerConfig cfg;
    cfg.shards = 2;
    cfg.queueDepth = 64;
    cfg.batchMax = 8;
    serve::Server server(cfg);

    constexpr uint64_t kJobs = 24;
    std::atomic<uint64_t> done{0};
    for (uint64_t i = 0; i < kJobs; ++i) {
        ASSERT_TRUE(server.submit(
            quickJob(i, kernels::KernelKind::ForwardPass,
                     i % 2 ? mpc::Variant::CompMax
                           : mpc::Variant::Baseline,
                     1 + i % 3),
            [&](const serve::JobResult &r) {
                EXPECT_TRUE(r.ok) << r.error;
                EXPECT_GT(r.counters.instructions, 0u);
                ++done;
            },
            /*block=*/true));
    }
    server.drain(); // must not return before in-flight work completes
    EXPECT_EQ(done.load(), kJobs);

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.accepted, kJobs);
    EXPECT_EQ(s.completed, kJobs);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(server.latencyHistogram().total(), kJobs);

    // drain() published the summary row and stays idempotent.
    EXPECT_EQ(server.summaryRow().text("completed"), "24");
    server.drain();
    EXPECT_EQ(server.stats().completed, kJobs);
}

TEST(Server, BatchedResultsBitIdenticalToStandaloneRuns)
{
    // A mixed stream: every kernel, two variants, two seeds, and a
    // couple of machine-config variations so batches must regroup and
    // switch configs.  The shard-served counters must equal a fresh
    // standalone KernelMachine running the same job once.
    std::vector<serve::JobSpec> specs;
    uint64_t id = 0;
    for (int k = 0; k < int(kernels::KernelKind::NUM_KERNELS); ++k) {
        for (mpc::Variant v :
             {mpc::Variant::Baseline, mpc::Variant::CompMax}) {
            for (uint64_t seed : {1, 2}) {
                serve::JobSpec spec =
                    quickJob(id++, kernels::KernelKind(k), v, seed);
                if (seed == 2)
                    spec.machine.memsys.mode =
                        sim::MemSysParams::Mode::Lsq;
                specs.push_back(spec);
            }
        }
    }

    serve::ServerConfig cfg;
    cfg.shards = 2;
    cfg.queueDepth = specs.size();
    cfg.batchMax = 4;
    serve::Server server(cfg);

    std::mutex mu;
    std::map<uint64_t, serve::JobResult> results;
    for (const serve::JobSpec &spec : specs) {
        ASSERT_TRUE(server.submit(
            spec,
            [&](const serve::JobResult &r) {
                std::lock_guard<std::mutex> lock(mu);
                results[r.id] = r;
            },
            /*block=*/true));
    }
    server.drain();
    ASSERT_EQ(results.size(), specs.size());
    EXPECT_GT(server.stats().configSwitches, 0u);

    for (const serve::JobSpec &spec : specs) {
        const serve::JobResult &got = results.at(spec.id);
        ASSERT_TRUE(got.ok) << got.error;

        kernels::KernelMachine fresh(spec.kind, spec.variant,
                                     spec.machine);
        serve::JobInputs inputs;
        int64_t score = inputs.run(fresh, spec);
        EXPECT_EQ(got.score, score) << "job " << spec.id;
        EXPECT_TRUE(got.counters == fresh.totals())
            << "job " << spec.id << ": served counters diverge from a "
            << "fresh standalone machine";
    }
}

/**
 * Pooled machines across many jobs: on each grid configuration
 * (classic; LSQ with the stride prefetcher; enhanced with the BTAC)
 * one MachinePool serves 24 serve-mix jobs over all four kernels and
 * both variants, so every pooled machine is reset and reused between
 * jobs with different inputs.  Each job's score and full Counters must
 * equal a fresh machine running the job once.
 */
TEST(ResetEquivalence, ManyResetsMatchFresh)
{
    const kernels::KernelKind kinds[] = {
        kernels::KernelKind::ForwardPass, kernels::KernelKind::Dropgsw,
        kernels::KernelKind::P7Viterbi, kernels::KernelKind::SemiGAlign};
    const std::pair<const char *, sim::MachineConfig> configs[] = {
        {"classic", sim::MachineConfig::power5Baseline()},
        {"lsq_stride", sim::MachineConfig::power5WithLsq(
                           16, 16, sim::PrefetchParams::Kind::Stride)},
        {"enhanced", sim::MachineConfig::power5Enhanced()},
    };
    for (const auto &[name, mc] : configs) {
        kernels::MachinePool pool;
        serve::JobInputs pooledInputs, freshInputs;
        for (uint64_t idx = 0; idx < 24; ++idx) {
            serve::JobSpec spec;
            spec.id = idx;
            spec.kind = kinds[idx % 4];
            spec.variant = (idx / 4) % 2 == 0 ? mpc::Variant::Baseline
                                              : mpc::Variant::CompMax;
            spec.machine = mc;
            spec.seed = 1 + idx / 8;
            spec.n = 16;

            kernels::KernelMachine &km =
                pool.acquire(spec.kind, spec.variant, spec.machine);
            int64_t score = pooledInputs.run(km, spec);

            kernels::KernelMachine fresh(spec.kind, spec.variant,
                                         spec.machine);
            EXPECT_EQ(score, freshInputs.run(fresh, spec))
                << name << " job " << idx;
            EXPECT_TRUE(km.totals() == fresh.totals())
                << name << " job " << idx
                << ": reset machine's counters diverge from a fresh one";
        }
    }
}

TEST(Server, ConcurrentSubmitters)
{
    serve::ServerConfig cfg;
    cfg.shards = 2;
    cfg.queueDepth = 16;
    cfg.batchMax = 4;
    serve::Server server(cfg);

    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 8;
    std::atomic<uint64_t> done{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t)
        clients.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                serve::JobSpec spec = quickJob(
                    uint64_t(t) * kPerThread + i,
                    i % 2 ? kernels::KernelKind::Dropgsw
                          : kernels::KernelKind::SemiGAlign,
                    mpc::Variant::Baseline, 1 + i % 2);
                ASSERT_TRUE(server.submit(
                    spec,
                    [&](const serve::JobResult &r) {
                        EXPECT_TRUE(r.ok) << r.error;
                        done.fetch_add(1, std::memory_order_relaxed);
                    },
                    /*block=*/true));
            }
        });
    for (auto &t : clients)
        t.join();
    server.drain();
    EXPECT_EQ(done.load(), uint64_t(kThreads) * kPerThread);
    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(s.failed, 0u);
}

} // namespace
} // namespace bp5
