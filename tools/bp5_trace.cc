/**
 * @file
 * bp5-trace: observability front-end for the simulated POWER5.  Runs
 * one kernel (canned deterministic inputs) or one full workload, with
 * any combination of trace sinks attached:
 *
 *   --perfetto=PATH  Chrome trace-event JSON (open in ui.perfetto.dev)
 *   --konata=PATH    Konata pipeline log (github.com/shioyadan/Konata)
 *   --pmu-csv=PATH   per-interval PMU counter series (CSV)
 *
 * Selection:
 *   --kernel=NAME    forward_pass | dropgsw | P7Viterbi |
 *                    SEMI_G_ALIGN | sankoff (or the owning app's
 *                    name); runs the canned kernels::SyntheticInputs
 *   --app=NAME       Blast | Clustalw | Fasta | Hmmer (workload mode)
 *   --variant=NAME   Original | hand isel | hand max | comp. isel |
 *                    comp. max | Combination (punctuation optional)
 *   --machine=NAME   baseline | btac | fxu3 | fxu4 | enhanced
 *   --memsys=NAME    classic | lsq | lsq+nextline | lsq+stride
 *                    (memory-system model; lsq adds finite queues,
 *                    store forwarding and speculative disambiguation,
 *                    the +kind forms attach an L1D prefetcher)
 *   --klass=A|B|C    input class (app mode)
 *
 * Sampling and output:
 *   --interval=N     PMU sampling interval in cycles (default 10000)
 *   --sites          per-branch-site counters, joined with the static
 *                    branch classes of the binary (table output)
 *   --stalls         CPI stack, per-PC stall attribution joined with
 *                    the static loop analysis, latency histograms
 *   --budget=N       instruction budget (default 2000000)
 *   --seed=N         input-generation seed (default 42)
 *   --max-events=N   event cap for the perfetto/konata writers
 *   --json           machine-readable output (JSON Lines) on stdout
 *   --manifest=PATH  append the run manifest ("-" = stdout)
 *
 * Exit status: 0 on success, 2 on usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/branch_class.h"
#include "analysis/loops.h"
#include "kernels/kernels.h"
#include "obs/cpi_stack.h"
#include "obs/konata_sink.h"
#include "obs/manifest.h"
#include "obs/perfetto_sink.h"
#include "obs/pmu_sampler.h"
#include "obs/site_profile.h"
#include "obs/trace_mux.h"
#include "support/logging.h"
#include "workloads/workload.h"

using namespace bp5;

namespace {

struct Options
{
    std::string kernel;
    std::string app;
    std::string variant = "Original";
    std::string machine = "baseline";
    std::string memsys = "classic";
    std::string klass = "B";
    uint64_t budget = 2'000'000;
    uint64_t seed = 42;
    uint64_t interval = 10'000;
    uint64_t maxEvents = 2'000'000;
    std::string perfetto;
    std::string konata;
    std::string pmuCsv;
    std::string manifest;
    bool sites = false;
    bool stalls = false;
    bool json = false;
};

void
usage()
{
    std::fputs(
        "usage: bp5-trace (--kernel=NAME | --app=NAME) [--variant=NAME]\n"
        "                 [--machine=baseline|btac|fxu3|fxu4|enhanced]\n"
        "                 [--memsys=classic|lsq|lsq+nextline|lsq+stride]\n"
        "                 [--klass=A|B|C] [--budget=N] [--seed=N]\n"
        "                 [--interval=N] [--sites] [--stalls]\n"
        "                 [--max-events=N]\n"
        "                 [--perfetto=PATH] [--konata=PATH]\n"
        "                 [--pmu-csv=PATH] [--manifest=PATH] [--json]\n",
        stderr);
}

/** Report a malformed numeric flag; returns the bad-argument status. */
int
badValue(const std::string &arg)
{
    std::fprintf(stderr, "bp5-trace: bad value in '%s'\n", arg.c_str());
    return 2;
}

/** Problem scale of --kernel's canned inputs (kernels::SyntheticInputs). */
unsigned
cannedScale(kernels::KernelKind kind)
{
    switch (kind) {
      case kernels::KernelKind::P7Viterbi: return 40;
      case kernels::KernelKind::SemiGAlign: return 150;
      case kernels::KernelKind::Sankoff: return 64;
      default: return 120;
    }
}

/**
 * Name the innermost static loop containing @p pc ("loop@0xADDR",
 * with the recovered trip count when the loop is counted), or "-".
 */
std::string
loopLabelAt(const analysis::Cfg &cfg, const analysis::BinLoopForest &loops,
            uint64_t pc)
{
    const analysis::BasicBlock *bb = cfg.blockAt(pc);
    if (bb == nullptr)
        return "-";
    const analysis::BinLoop *best = nullptr;
    for (const analysis::BinLoop &l : loops.loops) {
        if (l.contains(bb->id) &&
            (best == nullptr || l.blocks.size() < best->blocks.size()))
            best = &l;
    }
    if (best == nullptr)
        return "-";
    std::string out = strprintf(
        "loop@0x%llx",
        (unsigned long long)cfg.blocks[size_t(best->header)].start);
    if (best->counted && best->tripCount >= 0)
        out += strprintf(" x%lld", (long long)best->tripCount);
    return out;
}

/**
 * Flat stall profile joined with the static loop analysis: the @p top
 * hottest pcs by attributed stall cycles, one row each.
 */
std::vector<support::ResultRow>
stallProfileRows(const sim::StallProfile &profile,
                 const analysis::Cfg &cfg,
                 const analysis::BinLoopForest &loops, size_t top)
{
    uint64_t allStalls = 0;
    for (const auto &[pc, site] : profile)
        allStalls += site.total();

    std::vector<std::pair<uint64_t, const sim::StallSiteStats *>> order;
    for (const auto &[pc, site] : profile)
        order.emplace_back(pc, &site);
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->total() != b.second->total())
                      return a.second->total() > b.second->total();
                  return a.first < b.first;
              });
    if (order.size() > top)
        order.resize(top);

    std::vector<support::ResultRow> rows;
    for (const auto &[pc, site] : order) {
        size_t topComp = 0;
        for (size_t i = 1; i < site->cycles.size(); ++i)
            if (site->cycles[i] > site->cycles[topComp])
                topComp = i;
        std::string disasm = "?";
        if (const analysis::BasicBlock *bb = cfg.blockAt(pc)) {
            for (const analysis::CfgInst &ci : bb->insts)
                if (ci.pc == pc)
                    disasm = isa::disassemble(ci.inst, ci.pc);
        }
        support::ResultRow row;
        row.set("pc", strprintf("0x%llx", (unsigned long long)pc))
            .set("inst", disasm)
            .set("loop", loopLabelAt(cfg, loops, pc))
            .set("stall_cycles", site->total())
            .setPct("of_all_stalls", allStalls ? double(site->total()) /
                                                     double(allStalls)
                                               : 0.0)
            .set("top_component",
                 sim::cpiComponentKey(sim::CpiComponent(topComp)))
            .set("flush",
                 site->cycles[size_t(sim::CpiComponent::BranchFlush)] +
                     site->cycles[size_t(
                         sim::CpiComponent::DisambigFlush)])
            .set("data",
                 site->cycles[size_t(sim::CpiComponent::LsuFwd)] +
                     site->cycles[size_t(sim::CpiComponent::LsuL1)] +
                     site->cycles[size_t(sim::CpiComponent::LsuL2)] +
                     site->cycles[size_t(sim::CpiComponent::LsuMem)])
            .set("fxu", site->cycles[size_t(sim::CpiComponent::Fxu)]);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--kernel=")) {
            opts.kernel = v;
        } else if (const char *v = val("--app=")) {
            opts.app = v;
        } else if (const char *v = val("--variant=")) {
            opts.variant = v;
        } else if (const char *v = val("--machine=")) {
            opts.machine = v;
        } else if (const char *v = val("--memsys=")) {
            opts.memsys = v;
        } else if (const char *v = val("--klass=")) {
            opts.klass = v;
        } else if (const char *v = val("--budget=")) {
            if (!parseNumber(v, opts.budget))
                return badValue(a);
        } else if (const char *v = val("--seed=")) {
            if (!parseNumber(v, opts.seed))
                return badValue(a);
        } else if (const char *v = val("--interval=")) {
            if (!parseNumber(v, opts.interval))
                return badValue(a);
        } else if (const char *v = val("--max-events=")) {
            if (!parseNumber(v, opts.maxEvents))
                return badValue(a);
        } else if (const char *v = val("--perfetto=")) {
            opts.perfetto = v;
        } else if (const char *v = val("--konata=")) {
            opts.konata = v;
        } else if (const char *v = val("--pmu-csv=")) {
            opts.pmuCsv = v;
        } else if (const char *v = val("--manifest=")) {
            opts.manifest = v;
        } else if (a == "--sites") {
            opts.sites = true;
        } else if (a == "--stalls") {
            opts.stalls = true;
        } else if (a == "--json") {
            opts.json = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }
    if (opts.kernel.empty() == opts.app.empty()) {
        std::fputs("bp5-trace: exactly one of --kernel/--app required\n",
                   stderr);
        usage();
        return 2;
    }
    if (opts.interval == 0) {
        std::fputs("bp5-trace: --interval must be nonzero\n", stderr);
        return 2;
    }

    mpc::Variant variant;
    if (!kernels::variantFromName(opts.variant, variant))
        fatal("unknown variant '%s'", opts.variant.c_str());
    sim::MachineConfig mc;
    if (!kernels::machineFromName(opts.machine, mc))
        fatal("unknown machine '%s'", opts.machine.c_str());
    if (!kernels::memsysFromName(opts.memsys, mc))
        fatal("unknown memsys '%s'", opts.memsys.c_str());
    kernels::KernelKind kind = kernels::KernelKind::ForwardPass;
    std::string workloadName, inputName;
    if (!opts.kernel.empty()) {
        if (!kernels::kernelFromName(opts.kernel, kind))
            fatal("unknown kernel '%s'", opts.kernel.c_str());
        workloadName = kernels::kernelName(kind);
        inputName = strprintf("canned seed=%llu",
                              (unsigned long long)opts.seed);
    }

    std::unique_ptr<workloads::Workload> workload;
    if (!opts.app.empty()) {
        workloads::WorkloadConfig wc;
        bool found = false;
        std::string want = kernels::normalizedName(opts.app);
        for (int x = 0; x < int(workloads::App::NUM_APPS); ++x) {
            auto app = workloads::App(x);
            if (kernels::normalizedName(workloads::appName(app)) == want) {
                wc.app = app;
                found = true;
            }
        }
        if (!found)
            fatal("unknown app '%s'", opts.app.c_str());
        wc.klass = workloads::inputClassFromString(opts.klass);
        wc.seed = opts.seed;
        wc.simInstructionBudget = opts.budget;
        workload = std::make_unique<workloads::Workload>(wc);
        kind = workloads::appKernel(wc.app);
        workloadName = workloads::appName(wc.app);
        inputName = "class " + opts.klass;
    }

    kernels::KernelMachine km(kind, variant, mc);
    obs::PmuSampler sampler(opts.interval);
    obs::SiteProfileSink siteSink;
    obs::PerfettoSink perfetto(8, opts.maxEvents);
    obs::KonataSink konata(opts.maxEvents);
    obs::CpiStackSink cpiSink;
    obs::TraceMux mux;
    mux.add(&sampler);
    if (opts.sites || opts.stalls)
        mux.add(&siteSink);
    if (!opts.perfetto.empty())
        mux.add(&perfetto);
    if (!opts.konata.empty())
        mux.add(&konata);
    if (opts.stalls)
        mux.add(&cpiSink);
    km.setTraceSink(&mux);

    auto t0 = std::chrono::steady_clock::now();
    uint64_t invocations = 0;
    if (workload) {
        invocations = workload->simulate(km).invocations;
    } else {
        // Cycle through the canned invocations until the budget is used.
        kernels::SyntheticInputs canned(kind, opts.seed, cannedScale(kind));
        do {
            km.run(canned.invocation(invocations % canned.size()));
            ++invocations;
        } while (km.totals().instructions < opts.budget);
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    if (!opts.perfetto.empty() && !perfetto.writeTo(opts.perfetto))
        return 1;
    if (!opts.konata.empty() && !konata.writeTo(opts.konata))
        return 1;
    if (!opts.pmuCsv.empty()) {
        FILE *f = std::fopen(opts.pmuCsv.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "bp5-trace: cannot open %s\n",
                         opts.pmuCsv.c_str());
            return 1;
        }
        std::fputs(sampler.toCsv().c_str(), f);
        std::fclose(f);
    }

    // Manifest row: identity + machine + counters + speed.
    obs::RunInfo info;
    info.tool = "bp5-trace";
    info.workload = workloadName;
    info.variant = mpc::variantName(variant);
    info.input = inputName;
    info.invocations = invocations;
    info.wallSeconds = wall;
    info.machine = mc;
    info.counters = km.totals();
    std::vector<support::ResultRow> rows{obs::manifestRow(info)};
    obs::appendManifest(opts.manifest, rows, "run-manifest");

    if (opts.json) {
        std::fputs(support::emitJsonLine(rows, "run-manifest").c_str(),
                   stdout);
    } else {
        std::fputs(support::emitText(rows, "run: " + workloadName).c_str(),
                   stdout);
        const sim::Counters &c = km.totals();
        std::printf("\n%llu instructions, %llu cycles, IPC %.3f; "
                    "%llu invocations; %zu PMU windows\n",
                    (unsigned long long)c.instructions,
                    (unsigned long long)c.cycles, c.ipc(),
                    (unsigned long long)invocations,
                    sampler.intervals(true).size());
        if (!opts.perfetto.empty())
            std::printf("perfetto: %s (%llu events, %llu dropped)\n",
                        opts.perfetto.c_str(),
                        (unsigned long long)perfetto.eventCount(),
                        (unsigned long long)perfetto.droppedEvents());
        if (!opts.konata.empty())
            std::printf("konata: %s (%llu instructions, %llu dropped)\n",
                        opts.konata.c_str(),
                        (unsigned long long)konata.instCount(),
                        (unsigned long long)konata.droppedInsts());
    }

    if (opts.sites) {
        // Join the per-site counters with the static branch classes
        // of the traced binary (paper IV-A taxonomy).
        const sim::BranchProfile &profile = siteSink.branches();
        analysis::Cfg cfg = analysis::buildCfg(
            analysis::CodeImage::fromProgram(
                km.compiled().program(kernels::kCodeBase)));
        auto sites = analysis::classifyBranches(cfg);
        auto classes = analysis::joinProfile(sites, profile);
        std::string t1 = "branch classes: " + workloadName;
        std::string t2 = "hot mispredictors: " + workloadName;
        auto classRows = analysis::classProfileRows(classes);
        auto siteRows = analysis::siteProfileRows(sites, profile);
        if (opts.json) {
            std::fputs(support::emitJsonLine(classRows, t1).c_str(),
                       stdout);
            std::fputs(support::emitJsonLine(siteRows, t2).c_str(),
                       stdout);
        } else {
            std::fputs(support::emitText(classRows, t1).c_str(), stdout);
            std::fputs(support::emitText(siteRows, t2).c_str(), stdout);
        }
    }

    if (opts.stalls) {
        // CPI stack plus the flat per-PC attribution, joined with the
        // static loop analysis so the hot loop gets named.
        analysis::Cfg cfg = analysis::buildCfg(
            analysis::CodeImage::fromProgram(
                km.compiled().program(kernels::kCodeBase)));
        analysis::BinLoopForest loops = analysis::findCfgLoops(cfg);
        std::vector<support::ResultRow> stallRows =
            stallProfileRows(siteSink.stalls(), cfg, loops, 20);
        std::string title = "stall profile: " + workloadName;
        if (opts.json) {
            std::fputs(support::emitJsonLine(stallRows, title).c_str(),
                       stdout);
        } else {
            obs::CpiStack stack =
                obs::CpiStack::fromCounters(km.totals());
            std::printf("\nCPI stack: %s\n", workloadName.c_str());
            std::fputs(obs::renderCpiStack(stack).c_str(), stdout);
            std::fputs(support::emitText(stallRows, title).c_str(),
                       stdout);
            const support::Log2Histogram &lat = cpiSink.latency();
            std::printf("\nfetch->commit latency (cycles): "
                        "mean %.1f, p50 <=%llu, p95 <=%llu, "
                        "p99 <=%llu\n",
                        lat.mean(),
                        (unsigned long long)lat.percentile(50),
                        (unsigned long long)lat.percentile(95),
                        (unsigned long long)lat.percentile(99));
            std::fputs(lat.toText().c_str(), stdout);
        }
    }
    return 0;
}
