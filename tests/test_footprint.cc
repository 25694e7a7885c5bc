/**
 * @file
 * Host memory a machine holds: its cache tag arrays and classic store
 * table sit on demand-zero pages (support::ZeroPageArray), so a
 * machine is resident only for the sets and slots its runs touched.
 * Linux-only (reads VmRSS from /proc/self/status); skipped under a
 * sanitizer, whose allocator and shadow memory are not the program's.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "kernels/kernels.h"
#include "serve/job.h"
#include "sim/machine.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BP5_FOOTPRINT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BP5_FOOTPRINT_SANITIZED 1
#endif
#endif

namespace bp5 {
namespace {

/** Machines built per measurement: spreads page rounding thin. */
constexpr int kMachines = 32;

/** Resident set of this process in KiB, or -1 where unknown. */
long
residentKiB()
{
#if defined(__linux__) && !defined(BP5_FOOTPRINT_SANITIZED)
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return -1;
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmRSS:", 6) == 0)
            std::sscanf(line + 6, "%ld", &kib);
    }
    std::fclose(f);
    return kib;
#else
    return -1;
#endif
}

TEST(Footprint, BareMachineHoldsNoCacheTables)
{
    const long before = residentKiB();
    if (before < 0)
        GTEST_SKIP() << "no VmRSS here (not Linux, or a sanitizer build)";
    std::vector<std::unique_ptr<sim::Machine>> machines;
    for (int i = 0; i < kMachines; ++i)
        machines.push_back(std::make_unique<sim::Machine>(
            sim::MachineConfig::power5Baseline()));
    const double perMachine =
        double(residentKiB() - before) / double(kMachines);
    // The 48 KiB predictor is filled at construction; the 536 KiB of
    // tag arrays and the 96 KiB store table are not.
    EXPECT_LE(perMachine, 80.0);
}

TEST(Footprint, PooledMachinePaysForWhatItTouches)
{
    serve::JobInputs inputs;
    serve::JobSpec spec; // baseline Dropgsw, n = 16
    {
        // One-time state (input set, compiler tables) is not per machine.
        kernels::MachinePool warm;
        inputs.run(warm.acquire(spec.kind, spec.variant, spec.machine), spec);
    }
    const long before = residentKiB();
    if (before < 0)
        GTEST_SKIP() << "no VmRSS here (not Linux, or a sanitizer build)";
    // One pool per machine, as one per serve shard or driver worker.
    std::vector<kernels::MachinePool> pools(kMachines);
    for (kernels::MachinePool &pool : pools) {
        kernels::KernelMachine &km =
            pool.acquire(spec.kind, spec.variant, spec.machine);
        inputs.run(km, spec);
    }
    const double perMachine =
        double(residentKiB() - before) / double(kMachines);
    // Zero-filled tables made this about 700 KiB.
    EXPECT_LE(perMachine, 256.0);
}

} // namespace
} // namespace bp5
