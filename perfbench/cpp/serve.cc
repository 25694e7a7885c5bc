#include "phases.h"

#include <time.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "support/logging.h"

namespace perfbench {

using namespace bp5;

namespace {

constexpr unsigned kShards = 2;
/// Closed-loop in-flight window: one full batch per shard, so both
/// shards stay busy while responses are held until their batch ends.
constexpr uint64_t kWindow = 64;
/// Eight batches per shard: long enough that the partial batches at a
/// round's start and end are a small share of it, short enough that a
/// run holds a dozen rounds or more for the quartile.
constexpr uint64_t kRoundJobs = 512;
constexpr uint64_t kWarmupJobs = 4 * kServeMix;
/// Any job still outstanding after this long means the server lost it.
constexpr double kWaitLimitSeconds = 120.0;

const kernels::KernelKind kKinds[] = {
    kernels::KernelKind::ForwardPass,
    kernels::KernelKind::Dropgsw,
    kernels::KernelKind::P7Viterbi,
    kernels::KernelKind::SemiGAlign,
};

/**
 * Wait until wallNow() reaches @p t: sleep to shortly before it, then
 * spin.  A sleeping generator on a virtual machine wakes milliseconds
 * late, which would be charged to every job it sends.
 */
void
waitUntil(double t)
{
    constexpr double kSpinSeconds = 300e-6;
    double wake = t - kSpinSeconds;
    if (wake > wallNow()) {
        timespec ts{};
        ts.tv_sec = time_t(wake);
        ts.tv_nsec = long((wake - double(ts.tv_sec)) * 1e9);
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                               nullptr) == EINTR) {
        }
    }
    while (wallNow() < t) {
    }
}

} // namespace

serve::JobSpec
serveSpec(uint64_t seed, uint64_t i)
{
    uint64_t idx = i % kServeMix;
    serve::JobSpec spec;
    spec.id = i;
    spec.kind = kKinds[idx % 4];
    spec.variant = (idx / 4) % 2 == 0 ? mpc::Variant::Baseline
                                      : mpc::Variant::CompMax;
    spec.machine = sim::MachineConfig::power5Baseline();
    spec.seed = 1 + 8 * seed + idx / 8;
    spec.n = 16;
    return spec;
}

std::string
serveRequestLine(const serve::JobSpec &spec)
{
    return strprintf("{\"id\": %llu, \"kernel\": \"%s\", "
                     "\"variant\": \"%s\", \"seed\": %llu, \"n\": %u}",
                     (unsigned long long)spec.id,
                     kernels::kernelName(spec.kind),
                     mpc::variantName(spec.variant),
                     (unsigned long long)spec.seed, spec.n);
}

/** One job as the generator saw it (times in wallNow() seconds). */
struct ServePhase::JobRec
{
    double due = 0.0;  ///< when the open loop meant to send it
    double sub0 = 0.0; ///< submit() called
    double sub1 = 0.0; ///< submit() returned
    double cb = 0.0;   ///< completion callback ran
    double latUs = 0.0; ///< JobResult::latencyUs
    double svcUs = 0.0; ///< JobResult::serviceUs
    bool ok = false;
    int64_t score = 0;
    sim::Counters counters;
};

/** Completion count shared with the shard threads' callbacks. */
struct ServePhase::Pending
{
    std::mutex mu;
    std::condition_variable cv;
    uint64_t done = 0; ///< jobs whose callback ran, plus refused ones
};

ServePhase::ServePhase(uint64_t seed, double openRate, Spans &spans,
                       Outcome &out)
    : seed_(seed), rate_(openRate), spans_(spans), out_(out)
{
}

ServePhase::~ServePhase()
{
    if (server_)
        server_->drain();
}

serve::JobSpec
ServePhase::specAt(uint64_t i) const
{
    return serveSpec(seed_, i);
}

void
ServePhase::setup(SetupCosts &costs)
{
    Scope s(spans_, "setup.serve");
    if (server_)
        finish();

    // Standalone reference results: one machine per (kernel, variant),
    // reset before every job exactly as a shard does.  The first run of
    // an input set pays its synthesis; the second shows the run alone.
    {
        Scope sr(spans_, "serve.reference");
        serve::JobInputs inputs;
        std::vector<std::unique_ptr<kernels::KernelMachine>> kms(8);
        ref_.assign(kServeMix, {});
        for (uint64_t idx = 0; idx < kServeMix; ++idx) {
            serve::JobSpec spec = specAt(idx);
            auto &km = kms[idx % 8];
            if (!km) {
                double b0 = wallNow();
                Scope sb(spans_, "kernels.build");
                km = std::make_unique<kernels::KernelMachine>(
                    spec.kind, spec.variant, spec.machine);
                costs.buildUs.add((wallNow() - b0) * 1e6);
            }
            km->reset();
            double t0 = wallNow();
            int64_t score = 0;
            {
                Scope si(spans_, "bio.inputs");
                score = inputs.run(*km, spec);
            }
            double t1 = wallNow();
            sim::Counters first = km->totals();
            km->reset();
            int64_t again = inputs.run(*km, spec);
            double t2 = wallNow();
            costs.inputsMs +=
                std::max(0.0, (t1 - t0) - (t2 - t1)) * 1e3;
            out_.check(again == score && km->totals() == first,
                       "serve reference run is not repeatable");
            ref_[idx] = {score, first};
        }
    }

    serve::ServerConfig cfg;
    cfg.shards = kShards;
    cfg.queueDepth = 8192;
    cfg.batchMax = 32;
    server_ = std::make_unique<serve::Server>(cfg);
    pending_ = std::make_unique<Pending>();
    submitted_ = 0;
    refused_ = 0;

    // Discarded warm-up burst: every shard meets every machine key and
    // input set here, so lazy builds and synthesis stay out of the
    // measured tail.
    Scope w(spans_, "serve.warmup");
    std::vector<JobRec> recs(kWarmupJobs);
    for (uint64_t k = 0; k < kWarmupJobs; ++k) {
        if (k >= kWindow)
            waitFor(submitted_ - kWindow + 1);
        submit(nextId_++, recs[k]);
    }
    waitFor(submitted_);
    for (uint64_t k = 0; k < kWarmupJobs; ++k)
        checkJob(nextId_ - kWarmupJobs + k, recs[k]);
}

bool
ServePhase::submit(uint64_t i, JobRec &rec)
{
    Pending *pend = pending_.get();
    JobRec *r = &rec;
    rec.sub0 = wallNow();
    bool admitted = server_->submit(
        specAt(i),
        [pend, r](const serve::JobResult &res) {
            r->cb = wallNow();
            r->latUs = res.latencyUs;
            r->svcUs = res.serviceUs;
            r->ok = res.ok;
            r->score = res.score;
            r->counters = res.counters;
            {
                std::lock_guard<std::mutex> lock(pend->mu);
                ++pend->done;
            }
            pend->cv.notify_all();
        },
        /*block=*/false);
    rec.sub1 = wallNow();
    ++submitted_;
    if (!admitted) {
        ++refused_;
        std::lock_guard<std::mutex> lock(pend->mu);
        ++pend->done;
    }
    return admitted;
}

void
ServePhase::waitFor(uint64_t completed)
{
    std::unique_lock<std::mutex> lock(pending_->mu);
    bool ok = pending_->cv.wait_for(
        lock, std::chrono::duration<double>(kWaitLimitSeconds),
        [&] { return pending_->done >= completed; });
    if (!ok) {
        // Callbacks still hold pointers into the job records, so the
        // run cannot continue; report and stop.
        fatal("serve: %llu of %llu jobs never completed",
              (unsigned long long)(completed - pending_->done),
              (unsigned long long)completed);
    }
}

void
ServePhase::checkJob(uint64_t i, const JobRec &rec)
{
    const Reference &ref = ref_[i % kServeMix];
    out_.check(rec.ok && rec.score == ref.score &&
                   rec.counters == ref.counters,
               strprintf("serve job %llu: result differs from its "
                         "standalone reference",
                         (unsigned long long)i));
}

void
ServePhase::closedRound()
{
    Scope s(spans_, "serve.closed_round", rounds());
    std::vector<JobRec> recs(kRoundJobs);
    uint64_t base = submitted_;
    uint64_t firstId = nextId_;
    double w0 = wallNow();
    double c0 = processCpuNow();
    for (uint64_t k = 0; k < kRoundJobs; ++k) {
        if (k >= kWindow)
            waitFor(base + k - kWindow + 1);
        submit(nextId_++, recs[k]);
    }
    waitFor(base + kRoundJobs);
    double cpu = processCpuNow() - c0;
    double wall = wallNow() - w0;
    roundRate_.add(double(kRoundJobs) / wall);
    roundCpuRate_.add(double(kRoundJobs) / cpu);
    for (uint64_t k = 0; k < kRoundJobs; ++k)
        checkJob(firstId + k, recs[k]);
}

void
ServePhase::openWindow()
{
    const uint64_t jobs = kOpenWindowJobs;
    int phase = spans_.open("serve.open_window", windows());
    std::vector<JobRec> recs(jobs);
    uint64_t base = submitted_;
    uint64_t firstId = nextId_;
    serve::ServerStats before = server_->stats();
    double t0 = wallNow() + 0.001;
    for (uint64_t k = 0; k < jobs; ++k) {
        recs[k].due = t0 + double(k) / rate_;
        waitUntil(recs[k].due);
        submit(nextId_++, recs[k]);
    }
    waitFor(base + jobs);
    serve::ServerStats after = server_->stats();
    spans_.close(phase);
    openBatches_ += after.batches - before.batches;
    openSwitches_ += after.configSwitches - before.configSwitches;

    Samples window;
    for (uint64_t k = 0; k < jobs; ++k) {
        const JobRec &r = recs[k];
        uint64_t id = firstId + k;
        checkJob(id, r);
        if (!r.ok)
            continue;
        window.add((r.cb - r.due) * 1e3);
        latencyMs_.add((r.cb - r.due) * 1e3);
        lateMs_.add((r.sub0 - r.due) * 1e3);
        submitUs_.add((r.sub1 - r.sub0) * 1e6);
        waitUs_.add(r.latUs - r.svcUs);
        holdUs_.add((r.cb - r.sub1) * 1e6 - r.latUs);
        serviceUs_.add(r.svcUs);
        if (spans_.enabled()) {
            // Stage spans reconstructed from the job's own timestamps:
            // admitted at submit, served for serviceUs ending latencyUs
            // after admission, then held until the batch's callbacks.
            double svcEnd = r.sub0 + r.latUs * 1e-6;
            double svcStart = svcEnd - r.svcUs * 1e-6;
            unsigned track = unsigned(100 + id % 64);
            int j = spans_.add("serve.job", r.due, r.cb, phase, id, track);
            spans_.add("serve.submit", r.sub0, r.sub1, j, id, track);
            spans_.add("serve.wait", r.sub1, svcStart, j, id, track);
            spans_.add("serve.service", svcStart, svcEnd, j, id, track);
            spans_.add("serve.hold", svcEnd, r.cb, j, id, track);
        }
    }
    double p99 = 0.0;
    out_.check(window.tail(99, p99), "serve: open-loop window too small");
    windowP99Ms_.add(p99);
}

void
ServePhase::finish()
{
    if (!server_)
        return;
    server_->drain();
    serve::ServerStats st = server_->stats();
    uint64_t callbacks = pending_->done - refused_;
    out_.check(st.accepted + st.rejected == submitted_ &&
                   st.rejected == refused_ &&
                   st.accepted == st.completed + st.failed &&
                   callbacks == st.accepted && st.failed == 0 &&
                   st.rejected == 0,
               strprintf("serve accounting: submitted %llu accepted %llu "
                         "completed %llu failed %llu rejected %llu "
                         "callbacks %llu",
                         (unsigned long long)submitted_,
                         (unsigned long long)st.accepted,
                         (unsigned long long)st.completed,
                         (unsigned long long)st.failed,
                         (unsigned long long)st.rejected,
                         (unsigned long long)callbacks));
    server_.reset();
}

std::vector<sim::Counters>
ServePhase::counts() const
{
    std::vector<sim::Counters> v;
    for (const Reference &r : ref_)
        v.push_back(r.counters);
    return v;
}

void
ServePhase::report(Metrics &e2e, Metrics &layer, Metrics &detail) const
{
    // Tail percentiles need ten samples beyond their rank; a missing one
    // fails the run rather than printing a bucket edge or a guess.
    auto put = [&](Metrics &m, const std::string &name, const Samples &s,
                   double p, const char *unit) {
        double v = s.median();
        bool ok = p == 50.0 ? !s.empty() : s.tail(p, v);
        out_.check(ok, name + ": too few samples for p" +
                           std::to_string(int(p)));
        m[name] = {v, unit};
        detail[name + ".samples"] = {double(s.size()), "count"};
    };
    // Wall-clock capacity: it falls when shards or the generator block
    // on each other, which the per-CPU-second rate (a detail) cannot see.
    e2e["serve_jobs_per_s"] = {roundRate_.rank(kRateQuantile), "1/s"};
    detail["serve_jobs_per_s.median"] = {roundRate_.median(), "1/s"};
    detail["serve_jobs_per_s.cpu"] = {roundCpuRate_.rank(kRateQuantile),
                                      "1/cpu-s"};
    detail["serve_jobs_per_s.rounds"] = {double(roundRate_.size()),
                                         "count"};
    detail["serve.open_rate"] = {rate_, "1/s"};
    // Open-loop latency doubles when the host preempts the shards, so
    // like the p99 it is reported but not gated.
    put(layer, "serve_p50_ms", latencyMs_, 50, "ms");
    layer["serve_p99_ms"] = {windowP99Ms_.median(), "ms"};
    detail["serve_p99_ms.windows"] = {double(windowP99Ms_.size()), "count"};
    detail["serve_p99_ms.samples_per_window"] = {double(kOpenWindowJobs),
                                                 "count"};
    put(layer, "loadgen.late_p99_ms", lateMs_, 99, "ms");
    put(layer, "serve.submit_us.p99", submitUs_, 99, "us");
    put(layer, "serve.wait_us.p50", waitUs_, 50, "us");
    put(layer, "serve.wait_us.p99", waitUs_, 99, "us");
    put(layer, "serve.batch_hold_us.p99", holdUs_, 99, "us");
    put(layer, "serve.service_us.p50", serviceUs_, 50, "us");
    put(layer, "serve.service_us.p99", serviceUs_, 99, "us");
    layer["serve.batches"] = {double(openBatches_), "count"};
    layer["serve.config_switches"] = {double(openSwitches_), "count"};
}

} // namespace perfbench
