#include "serve/job.h"

#include <cinttypes>

#include "obs/json.h"
#include "support/logging.h"
#include "support/result.h"

namespace bp5::serve {

bool
parseJobLine(const std::string &line, JobSpec &out, std::string &err)
{
    obs::JsonValue doc;
    if (!obs::parseJson(line, doc, err))
        return false;
    if (!doc.isObject()) {
        err = "job is not a JSON object";
        return false;
    }

    out = JobSpec();
    bool haveKernel = false;
    for (const auto &[key, v] : doc.fields) {
        if (key == "id") {
            if (!v.isNumber() || v.number < 0) {
                err = "'id' must be a non-negative number";
                return false;
            }
            out.id = uint64_t(v.number);
        } else if (key == "kernel" || key == "app") {
            if (!v.isString() ||
                !kernels::kernelFromName(v.str, out.kind)) {
                err = "unknown kernel/app '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
            haveKernel = true;
        } else if (key == "variant") {
            if (!v.isString() ||
                !kernels::variantFromName(v.str, out.variant)) {
                err = "unknown variant '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
        } else if (key == "machine") {
            if (!v.isString() ||
                !kernels::machineFromName(v.str, out.machine)) {
                err = "unknown machine '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
        } else if (key == "memsys") {
            if (!v.isString() ||
                !kernels::memsysFromName(v.str, out.machine)) {
                err = "unknown memsys '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
        } else if (key == "seed") {
            if (!v.isNumber() || v.number < 0) {
                err = "'seed' must be a non-negative number";
                return false;
            }
            out.seed = uint64_t(v.number);
        } else if (key == "n") {
            if (!v.isNumber() || v.number < 2 || v.number > 4096) {
                err = "'n' must be a number in [2, 4096]";
                return false;
            }
            out.n = unsigned(v.number);
        } else {
            err = "unknown job field '" + key + "'";
            return false;
        }
    }
    if (!haveKernel) {
        err = "job is missing 'kernel' (or 'app')";
        return false;
    }
    return true;
}

JobResult
errorResult(uint64_t id, std::string message)
{
    JobResult r;
    r.id = id;
    r.ok = false;
    r.error = std::move(message);
    return r;
}

std::string
resultLine(const JobResult &r)
{
    if (!r.ok) {
        return strprintf("{\"id\": %" PRIu64 ", \"ok\": false, "
                         "\"error\": %s}\n",
                         r.id, support::jsonEscape(r.error).c_str());
    }
    return strprintf(
        "{\"id\": %" PRIu64 ", \"ok\": true, \"score\": %" PRId64
        ", \"instructions\": %" PRIu64 ", \"cycles\": %" PRIu64
        ", \"ipc\": %.2f, \"lat_us\": %.1f, \"service_us\": %.1f, "
        "\"shard\": %u}\n",
        r.id, r.score, r.counters.instructions, r.counters.cycles,
        r.counters.ipc(), r.latencyUs, r.serviceUs, r.shard);
}

int64_t
JobInputs::run(kernels::KernelMachine &km, const JobSpec &spec)
{
    BP5_ASSERT(km.kind() == spec.kind,
               "machine built for kernel %d, job wants %d",
               int(km.kind()), int(spec.kind));

    std::unique_ptr<kernels::SyntheticInputs> &set =
        cache_[std::make_tuple(int(spec.kind), spec.seed, spec.n)];
    if (!set) {
        set = std::make_unique<kernels::SyntheticInputs>(spec.kind,
                                                         spec.seed, spec.n);
    }
    return km.run(set->invocation(spec.seed % set->size()));
}

} // namespace bp5::serve
