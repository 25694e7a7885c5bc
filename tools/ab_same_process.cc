/**
 * @file
 * Driver of tools/ab_same_process.sh: times two builds of the
 * simulator library, linked into one binary, on the same work.
 *
 * The file is compiled three times.  With AB_SIDE set (to base or
 * head, together with -Dbp5=bp5_<side> so the two trees' symbols do
 * not collide) it is the runner of one tree: ab_setup_<side> builds
 * the four applications' class-B workloads and a baseline POWER5
 * KernelMachine for each, and ab_run_<side> simulates one of them in
 * one mode and returns the thread CPU time and a digest of the
 * counters.  Without AB_SIDE it is main(): it interleaves repetitions
 * of the three modes, alternating which side runs first, refuses to
 * report when the two sides' counters differ, and prints the head/base
 * MIPS ratio per mode as median [p25, p75] with the number of
 * repetitions the head won.
 *
 * Both sides share one process, one heap and one CPU, so host noise
 * that moves both between repetitions cancels in the ratio.
 */

#include <cstdint>

/** Seed and per-application, per-mode instruction budget of every run. */
constexpr uint64_t kSeed = 1;
constexpr uint64_t kBudget = 2'000'000;
/** Interleaved repetitions of each mode. */
constexpr unsigned kReps = 30;

/** What one simulation of one application reports. */
struct AbSample
{
    double seconds = 0;        ///< thread CPU time of simulate()
    uint64_t instructions = 0;
    uint64_t digest = 0;       ///< hash of the event counters
};

/** The three modes, in the order main() reports them. */
enum AbMode : unsigned
{
    kFunctional,
    kSampled,
    kTiming,
    kNumModes,
};

#define AB_PASTE2(a, b) a##_##b
#define AB_PASTE(a, b) AB_PASTE2(a, b)

#ifdef AB_SIDE

#include <cstring>
#include <ctime>
#include <memory>
#include <vector>

#include "kernels/kernels.h"
#include "workloads/workload.h"

namespace {

struct App
{
    std::unique_ptr<bp5::workloads::Workload> workload;
    std::unique_ptr<bp5::kernels::KernelMachine> km;
};

std::vector<App> apps;

double
threadCpuNow()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

uint64_t
mix(uint64_t h, uint64_t v)
{
    return (h ^ v) * 0x100000001b3ULL;
}

} // namespace

unsigned
AB_PASTE(ab_setup, AB_SIDE)()
{
    using namespace bp5;
    for (unsigned a = 0; a < unsigned(workloads::App::NUM_APPS); ++a) {
        workloads::WorkloadConfig wc;
        wc.app = workloads::App(a);
        wc.klass = workloads::InputClass::B;
        wc.seed = kSeed;
        wc.simInstructionBudget = kBudget;
        App app;
        app.workload = std::make_unique<workloads::Workload>(wc);
        app.km = std::make_unique<kernels::KernelMachine>(
            workloads::appKernel(wc.app), mpc::Variant::Baseline,
            sim::MachineConfig::power5Baseline());
        apps.push_back(std::move(app));
    }
    return unsigned(apps.size());
}

AbSample
AB_PASTE(ab_run, AB_SIDE)(unsigned app, unsigned mode)
{
    using namespace bp5;
    App &a = apps[app];
    a.km->reset();
    if (mode == kFunctional)
        a.km->setFunctionalOnly(true);
    else if (mode == kSampled)
        a.km->setSampling({2'000, 38'000, true});
    const double t0 = threadCpuNow();
    const sim::Counters c = a.workload->simulate(*a.km).counters;
    AbSample s;
    s.seconds = threadCpuNow() - t0;
    s.instructions = c.instructions;
    // Every Counters field is a uint64_t, so hashing its words covers
    // each field of either tree; the two trees' digests are equal only
    // if their counters are.
    static_assert(sizeof c % sizeof(uint64_t) == 0);
    uint64_t words[sizeof c / sizeof(uint64_t)];
    std::memcpy(words, &c, sizeof c);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : words)
        h = mix(h, v);
    s.digest = h;
    return s;
}

#else // main

#include <algorithm>
#include <cstdio>
#include <vector>

unsigned ab_setup_base();
unsigned ab_setup_head();
AbSample ab_run_base(unsigned app, unsigned mode);
AbSample ab_run_head(unsigned app, unsigned mode);

namespace {

const char *const kModeNames[kNumModes] = {"functional", "sampled",
                                           "timing"};

/** Linear-interpolated quantile of sorted @p v. */
double
quantile(const std::vector<double> &v, double q)
{
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

} // namespace

int
main()
{
    const unsigned napps = ab_setup_base();
    if (ab_setup_head() != napps) {
        std::fprintf(stderr, "the two sides build different app sets\n");
        return 1;
    }

    // Unrecorded warm-up of every (side, app, mode).
    for (unsigned m = 0; m < kNumModes; ++m) {
        for (unsigned a = 0; a < napps; ++a) {
            ab_run_base(a, m);
            ab_run_head(a, m);
        }
    }

    std::vector<double> ratio[kNumModes];
    for (unsigned r = 0; r < kReps; ++r) {
        for (unsigned m = 0; m < kNumModes; ++m) {
            // side 0 = base, 1 = head; the first side alternates.
            const unsigned first = (r + m) % 2;
            std::vector<AbSample> runs[2];
            for (unsigned side : {first, 1 - first}) {
                for (unsigned a = 0; a < napps; ++a) {
                    runs[side].push_back(side ? ab_run_head(a, m)
                                              : ab_run_base(a, m));
                }
            }
            double sec[2] = {0, 0};
            uint64_t inst[2] = {0, 0};
            for (unsigned a = 0; a < napps; ++a) {
                if (runs[0][a].digest != runs[1][a].digest ||
                    runs[0][a].instructions != runs[1][a].instructions) {
                    std::fprintf(stderr,
                                 "counters differ: app %u, %s mode, rep %u;"
                                 " no ratio reported\n",
                                 a, kModeNames[m], r);
                    return 1;
                }
                for (unsigned side = 0; side < 2; ++side) {
                    sec[side] += runs[side][a].seconds;
                    inst[side] += runs[side][a].instructions;
                }
            }
            ratio[m].push_back((double(inst[1]) / sec[1]) /
                               (double(inst[0]) / sec[0]));
        }
    }

    std::printf("head/base simulated-MIPS ratio, %u interleaved reps, "
                "seed %llu, %llu instructions per app and mode\n",
                kReps, static_cast<unsigned long long>(kSeed),
                static_cast<unsigned long long>(kBudget));
    for (unsigned m = 0; m < kNumModes; ++m) {
        std::vector<double> v = ratio[m];
        const long wins = std::count_if(v.begin(), v.end(),
                                        [](double x) { return x > 1.0; });
        std::sort(v.begin(), v.end());
        std::printf("%-10s  %.3f [%.3f, %.3f]  head wins %ld/%u\n",
                    kModeNames[m], quantile(v, 0.5), quantile(v, 0.25),
                    quantile(v, 0.75), wins, kReps);
    }
    return 0;
}

#endif
