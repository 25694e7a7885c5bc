/**
 * @file
 * The bp5-serve job model and wire protocol.
 *
 * A job names one kernel invocation: which kernel (or owning
 * application), which code variant, which machine configuration, and
 * a deterministic synthetic input (seed + problem scale, the same
 * substitution-for-BioPerf-inputs scheme the workloads use).  Jobs
 * travel as line-delimited JSON; one request line yields exactly one
 * response line:
 *
 *   {"id": 7, "kernel": "dropgsw", "variant": "comp. max",
 *    "machine": "baseline", "memsys": "lsq", "seed": 3, "n": 16}
 *   {"id": 7, "ok": true, "score": 64, "instructions": 9455,
 *    "cycles": 15210, "ipc": 0.62, "lat_us": 812.4, "shard": 2}
 *
 * Every field but "kernel" (or its alias "app") is optional; errors
 * come back as {"id": N, "ok": false, "error": "..."}.  Input
 * synthesis is pure in (kernel, seed, n), so a job's result is
 * bit-identical wherever it runs — the server pins that against
 * standalone KernelMachine runs in tests.
 */

#ifndef BIOPERF5_SERVE_JOB_H
#define BIOPERF5_SERVE_JOB_H

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "kernels/kernels.h"
#include "sim/config.h"
#include "sim/counters.h"

namespace bp5::serve {

/** One parsed job request. */
struct JobSpec
{
    uint64_t id = 0;
    kernels::KernelKind kind = kernels::KernelKind::Dropgsw;
    mpc::Variant variant = mpc::Variant::Baseline;
    sim::MachineConfig machine;
    uint64_t seed = 1;  ///< input-synthesis seed
    unsigned n = 16;    ///< problem scale (sequence length / sites)
};

/** One job outcome (also the wire response). */
struct JobResult
{
    uint64_t id = 0;
    bool ok = false;
    std::string error;       ///< set when !ok
    int64_t score = 0;       ///< kernel score (reference-checked)
    sim::Counters counters;  ///< exact per-invocation counters
    unsigned shard = 0;      ///< shard that served the job
    double latencyUs = 0.0;  ///< admission -> completion
    double serviceUs = 0.0;  ///< kernel execution only
};

/**
 * Parse one request line.  @return false with a one-line message in
 * @p err on malformed JSON, unknown names, or out-of-range values
 * (the daemon echoes the message back as the job's error response).
 */
bool parseJobLine(const std::string &line, JobSpec &out, std::string &err);

/** The response line for @p r, newline-terminated. */
std::string resultLine(const JobResult &r);

/** Convenience error response. */
JobResult errorResult(uint64_t id, std::string message);

/**
 * Deterministic synthetic inputs for job execution
 * (kernels::SyntheticInputs), cached by (kernel, seed, n) — input
 * generation (UPGMA trees, Plan7 model fits) dwarfs small-kernel
 * runtime, and serving streams repeat the same input families, so
 * each shard keeps one of these.  Not thread-safe; use one per shard.
 */
class JobInputs
{
  public:
    /**
     * Run exactly one invocation of @p spec on @p km (which must be
     * built for spec.kind) and return the kernel score: invocation
     * seed % count of the (kind, seed, n) input set.  The machine is
     * used as-is: reset it first when per-job results must match a
     * fresh machine.
     */
    int64_t run(kernels::KernelMachine &km, const JobSpec &spec);

  private:
    std::map<std::tuple<int, uint64_t, unsigned>,
             std::unique_ptr<kernels::SyntheticInputs>>
        cache_;
};

} // namespace bp5::serve

#endif // BIOPERF5_SERVE_JOB_H
