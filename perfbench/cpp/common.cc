#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace

double
wallNow()
{
    return clockSeconds(CLOCK_MONOTONIC);
}

double
threadCpuNow()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuNow()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::vector<double>
Samples::sorted() const
{
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    return s;
}

double
Samples::rank(double p) const
{
    if (v_.empty())
        return 0.0;
    size_t r = size_t(std::ceil(p / 100.0 * double(v_.size())));
    return sorted()[std::max<size_t>(r, 1) - 1];
}

bool
Samples::tail(double p, double &out) const
{
    size_t n = v_.size();
    size_t rank = size_t(std::ceil(p / 100.0 * double(n)));
    if (rank == 0 || n - rank < 10)
        return false;
    out = sorted()[rank - 1];
    return true;
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

void
addSimCounts(Metrics &m, const bp5::sim::Counters &c)
{
    using bp5::sim::CpiComponent;
    auto cpi = [&](CpiComponent k) { return double(c.cpi[size_t(k)]); };
    m["sim.instructions"] = {double(c.instructions), "count"};
    m["sim.cycles"] = {double(c.cycles), "cycles"};
    m["sim.cpi.branch_flush"] = {cpi(CpiComponent::BranchFlush), "cycles"};
    m["sim.cpi.lsu_mem"] = {cpi(CpiComponent::LsuMem), "cycles"};
    m["sim.cpi.fxu"] = {cpi(CpiComponent::Fxu), "cycles"};
    m["sim.cpi.frontend"] = {cpi(CpiComponent::Frontend), "cycles"};
    m["sim.mispredicts"] = {double(c.mispredDirection + c.mispredTarget),
                            "count"};
    m["sim.l1d_misses"] = {double(c.l1dMisses), "count"};
    m["sim.store_forwards"] = {double(c.storeForwards), "count"};
    m["sim.prefetch_hits"] = {double(c.prefetchHits), "count"};
}

bp5::sim::Counters
sumCounters(const std::vector<bp5::sim::Counters> &v)
{
    bp5::sim::Counters total;
    for (const auto &c : v)
        total.add(c);
    return total;
}

Spans::Spans(bool enabled) : enabled_(enabled) {}

int
Spans::open(const char *name, uint64_t id)
{
    if (!enabled_)
        return -1;
    int parent = stack_.empty() ? -1 : stack_.back();
    double now = wallNow();
    spans_.push_back({name, now, now, parent, id, 0});
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
Spans::close(int index)
{
    if (index < 0)
        return;
    spans_[size_t(index)].end = wallNow();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

int
Spans::add(const char *name, double start, double end, int parent,
           uint64_t id, unsigned track)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, start, end, parent, id, track});
    return int(spans_.size()) - 1;
}

std::map<std::string, double>
Spans::selfTimeMs() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            children[size_t(s.parent)].push_back({s.start, s.end});
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.end);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[s.name] += (s.end - s.start - covered) * 1e3;
    }
    return self;
}

bool
Spans::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    double epoch = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span &s : spans_)
        epoch = std::min(epoch, s.start);
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"id\": %llu}}\n",
                     i ? "," : "", s.name, s.track,
                     (s.start - epoch) * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent, (unsigned long long)s.id);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
