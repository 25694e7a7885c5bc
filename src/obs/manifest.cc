#include "obs/manifest.h"

#include <cstdio>

#include "obs/cpi_stack.h"
#include "support/logging.h"

namespace bp5::obs {

void
addMachineCells(support::ResultRow &row, const sim::MachineConfig &mc)
{
    row.set("fetch_width", mc.fetchWidth)
        .set("dispatch_width", mc.dispatchWidth)
        .set("rob", mc.robSize)
        .set("fxu", mc.numFXU)
        .set("lsu", mc.numLSU)
        .set("predictor_entries", mc.predictorEntries)
        .set("btac", mc.btacEnabled ? "on" : "off")
        .set("taken_penalty", mc.takenBranchPenalty)
        .set("mispredict_penalty", mc.mispredictPenalty)
        .set("mem_latency", mc.memLatency)
        .set("memsys", sim::memSysModeKey(mc.memsys.mode));
    if (!mc.memsys.classic()) {
        row.set("lsq_loads", mc.memsys.lsq.loads)
            .set("lsq_stores", mc.memsys.lsq.stores);
    }
    if (mc.memsys.l1dPrefetch.enabled())
        row.set("l1d_prefetch",
                sim::prefetchKindKey(mc.memsys.l1dPrefetch.kind));
}

void
addCounterCells(support::ResultRow &row, const sim::Counters &c)
{
    row.set("instructions", c.instructions)
        .set("cycles", c.cycles)
        .set("ipc", c.ipc())
        .setPct("branch_fraction", c.branchFraction())
        .setPct("mispredict_rate", c.branchMispredictRate())
        .setPct("l1d_miss_rate", c.l1dMissRate())
        .setPct("stall_fxu", c.stallShare(sim::StallReason::FXU))
        .setPct("stall_lsu", c.stallShare(sim::StallReason::LSU))
        .setPct("stall_frontend", c.stallShare(sim::StallReason::Frontend))
        .set("store_forwards", c.storeForwards)
        .set("disambig_flushes", c.disambigFlushes)
        .set("lsq_full_loads", c.lsqFullLoads)
        .set("lsq_full_stores", c.lsqFullStores)
        .set("prefetch_issued", c.prefetchIssued)
        .set("prefetch_hits", c.prefetchHits);
    addCpiCells(row, c);
}

support::ResultRow
manifestRow(const RunInfo &info)
{
    support::ResultRow row;
    row.set("tool", info.tool)
        .set("workload", info.workload)
        .set("variant", info.variant.empty() ? "-" : info.variant)
        .set("input", info.input.empty() ? "-" : info.input);
    if (info.invocations)
        row.set("invocations", info.invocations);
    addMachineCells(row, info.machine);
    addCounterCells(row, info.counters);
    row.set("wall_s", info.wallSeconds, 3);
    double mips = info.wallSeconds > 0.0
                      ? double(info.counters.instructions) /
                            info.wallSeconds / 1e6
                      : 0.0;
    row.set("sim_mips", mips, 2);
    return row;
}

bool
appendManifest(const std::string &path,
               const std::vector<support::ResultRow> &rows,
               const std::string &title)
{
    if (path.empty())
        return true;
    std::string line = support::emitJsonLine(rows, title);
    if (path == "-") {
        std::fputs(line.c_str(), stdout);
        return true;
    }
    FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        warn("cannot open manifest %s for append", path.c_str());
        return false;
    }
    size_t n = std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
    if (n != line.size()) {
        warn("short write to manifest %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace bp5::obs
