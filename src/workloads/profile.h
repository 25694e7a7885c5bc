/**
 * @file
 * Scoped CPU-time function profiler for the native application
 * pipelines — the gprof analogue behind the paper's Fig 1
 * function-wise breakout.
 */

#ifndef BIOPERF5_WORKLOADS_PROFILE_H
#define BIOPERF5_WORKLOADS_PROFILE_H

#include <chrono>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace bp5::workloads {

/** Time spent in one profiled function. */
struct FunctionTime
{
    std::string name;
    double seconds = 0.0;
    double share = 0.0; ///< fraction of total profiled time
};

/** Accumulates per-function CPU time through RAII scopes. */
class Profiler
{
  public:
    /**
     * The profiled quantity is per-thread CPU time, not wall time:
     * a preempted thread stops accumulating, so the measured shares
     * reflect the work the functions do rather than host scheduling
     * noise (wall-clock scopes made the Fig-1 ordering flaky on
     * loaded CI machines).
     */
    static double
    now()
    {
#if defined(CLOCK_THREAD_CPUTIME_ID)
        timespec ts;
        if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
            return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
#endif
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** RAII scope: charges its lifetime to @p name. */
    class Scope
    {
      public:
        Scope(Profiler &p, const std::string &name)
            : profiler_(p), name_(name), start_(now())
        {
        }

        ~Scope() { profiler_.add(name_, now() - start_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Profiler &profiler_;
        std::string name_;
        double start_;
    };

    void
    add(const std::string &name, double seconds)
    {
        totals_[name] += seconds;
    }

    /** Breakdown sorted by descending share. */
    std::vector<FunctionTime> breakdown() const;

  private:
    std::map<std::string, double> totals_;
};

} // namespace bp5::workloads

#endif // BIOPERF5_WORKLOADS_PROFILE_H
