/**
 * @file
 * Shared pieces of the host-performance benchmark: clocks, exact
 * order-statistic percentiles, the metric table, and the in-memory span
 * recorder of the traced run.
 *
 * Simulated quantities (instructions, cycles, CPI components) repeat
 * exactly for a given seed; host times do not.  Every host time here is
 * therefore a median or quartile over repeated passes, and every tail
 * percentile is an exact order statistic over raw samples.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/counters.h"

namespace perfbench {

// --------------------------------------------------------------------
// Clocks.
// --------------------------------------------------------------------

/** Monotonic wall clock, seconds since an arbitrary epoch. */
double wallNow();

/** CPU time of the calling thread, seconds. */
double threadCpuNow();

/** CPU time of the whole process (all threads), seconds. */
double processCpuNow();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

// --------------------------------------------------------------------
// Samples and percentiles.
// --------------------------------------------------------------------

/** Raw samples of one quantity; percentiles are exact order statistics. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }

    /** Nearest-rank quantile @p p in (0, 100]; 0 when empty. */
    double rank(double p) const;

    /** Lower median (nearest rank); 0 when empty. */
    double median() const { return rank(50); }

    /**
     * Nearest-rank percentile @p p (0 < p < 100).  @return false when
     * fewer than ten samples lie beyond the rank: such a tail
     * percentile is not reported.
     */
    bool tail(double p, double &out) const;

  private:
    std::vector<double> sorted() const;

    std::vector<double> v_;
};

// --------------------------------------------------------------------
// Metrics.
// --------------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Named metrics of one run, ordered by name. */
using Metrics = std::map<std::string, Metric>;

/**
 * Outcome bookkeeping: every operation attempted, every one that
 * failed, and the first few failure messages.
 */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Count one attempted operation; @p ok false records a failure. */
    void check(bool ok, const std::string &what);
};

/** Exact simulated counts that every speed-only change must preserve. */
void addSimCounts(Metrics &m, const bp5::sim::Counters &c);

/** Field-wise sum of a set of counters. */
bp5::sim::Counters sumCounters(const std::vector<bp5::sim::Counters> &v);

// --------------------------------------------------------------------
// Spans (traced run only).
// --------------------------------------------------------------------

/**
 * In-memory span recorder.  Spans are recorded at the benchmark's own
 * calls into the program's public APIs, kept in memory, and written as
 * Chrome trace-event JSON at exit.  When disabled every call is a no-op
 * that reads no clock.
 */
class Spans
{
  public:
    explicit Spans(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** Open a span on the calling (main) thread; nests under the open
     *  span.  @return its index, or -1 when disabled. */
    int open(const char *name, uint64_t id = 0);
    void close(int index);

    /**
     * Record a finished span measured elsewhere (serve jobs), with
     * times in wallNow() seconds.  @return its index.
     */
    int add(const char *name, double start, double end, int parent,
            uint64_t id, unsigned track);

    /** Self time per span name: duration minus the part covered by
     *  child spans, summed, in milliseconds. */
    std::map<std::string, double> selfTimeMs() const;

    /** Write all spans as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

    size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        uint64_t id;
        unsigned track;
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on the main thread. */
class Scope
{
  public:
    Scope(Spans &s, const char *name, uint64_t id = 0)
        : spans_(s), index_(s.open(name, id))
    {
    }
    ~Scope() { spans_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &spans_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
