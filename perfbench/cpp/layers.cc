/**
 * @file
 * Per-layer probes of the traced run: host cost of single simulator
 * layers, measured at the benchmark's own calls into public APIs.
 */

#include "layers.h"

#include "bio/generator.h"
#include "kernels/kernels.h"
#include "obs/cpi_stack.h"
#include "obs/pmu_sampler.h"
#include "serve/job.h"
#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/predictor.h"

namespace perfbench {

using namespace bp5;

namespace {

constexpr int kReps = 5;

/** Median of per-rep CPU seconds per event, in ns. */
double
medianNs(const Samples &s)
{
    return s.median() * 1e9;
}

/** Host ns/inst of full-detail timing on each grid configuration. */
void
timingPerConfig(uint64_t seed, uint64_t budget, Spans &spans,
                Metrics &layer)
{
    Scope s(spans, "layers.timing");
    std::vector<std::unique_ptr<workloads::Workload>> ws;
    for (workloads::App app : allApps()) {
        workloads::WorkloadConfig wc;
        wc.app = app;
        wc.seed = seed;
        wc.simInstructionBudget = budget;
        ws.push_back(std::make_unique<workloads::Workload>(wc));
    }
    const auto &configs = gridConfigs();
    std::vector<std::vector<std::unique_ptr<kernels::KernelMachine>>> kms(
        configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        for (const auto &w : ws) {
            kms[c].push_back(std::make_unique<kernels::KernelMachine>(
                workloads::appKernel(w->app()), mpc::Variant::Baseline,
                configs[c].config));
        }
    }
    std::vector<Samples> perInst(configs.size());
    for (int rep = 0; rep < 3; ++rep) {
        for (size_t c = 0; c < configs.size(); ++c) {
            Scope sc(spans, "sim.timing", c);
            double cpu = 0.0;
            uint64_t inst = 0;
            for (size_t a = 0; a < ws.size(); ++a) {
                kms[c][a]->reset();
                double t0 = threadCpuNow();
                inst += ws[a]->simulate(*kms[c][a]).counters.instructions;
                cpu += threadCpuNow() - t0;
            }
            perInst[c].add(cpu / double(inst));
        }
    }
    for (size_t c = 0; c < configs.size(); ++c) {
        layer[std::string("sim.timing_ns_per_inst.") + configs[c].name] = {
            medianNs(perInst[c]), "ns"};
    }
}

/** The parts of an InstRecord the component replays need. */
struct Rec
{
    uint64_t pc;
    uint64_t addr;
    bool load, store, branch, cond, taken;
};

class Capture : public sim::TraceSink
{
  public:
    explicit Capture(size_t cap) : cap_(cap) {}
    void
    onInstruction(const sim::InstRecord &r, const sim::Counters &) override
    {
        if (recs.size() < cap_) {
            recs.push_back({r.pc, r.memAddr, r.isLoad, r.isStore,
                            r.isBranch, r.isCondBranch, r.taken});
        }
    }
    std::vector<Rec> recs;

  private:
    size_t cap_;
};

/**
 * Component replay: an InstRecord stream captured from one timing-grid
 * point (Fasta, Original, classic) replayed into a standalone L1D, the
 * tournament direction predictor and the BTAC.
 */
void
componentReplay(uint64_t seed, uint64_t budget, Spans &spans,
                Outcome &out, Metrics &layer, Metrics &detail)
{
    Scope s(spans, "layers.replay");
    const sim::MachineConfig mc = sim::MachineConfig::power5Baseline();
    Capture cap(budget);
    {
        workloads::WorkloadConfig wc;
        wc.app = workloads::App::Fasta;
        wc.seed = seed;
        wc.simInstructionBudget = budget;
        workloads::Workload w(wc);
        kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                                  mpc::Variant::Baseline, mc);
        km.setTraceSink(&cap);
        w.simulate(km);
    }
    const std::vector<Rec> &recs = cap.recs;

    Samples l1d, pred, btac;
    uint64_t memOps = 0, conds = 0, branches = 0, checksum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        {
            Scope sc(spans, "sim.l1d_replay");
            sim::Cache cache(mc.l1d, nullptr, mc.memLatency);
            memOps = 0;
            double t0 = threadCpuNow();
            for (const Rec &r : recs) {
                if (r.load || r.store) {
                    checksum += cache.access(r.addr, r.store);
                    ++memOps;
                }
            }
            l1d.add((threadCpuNow() - t0) / double(memOps));
        }
        {
            Scope sc(spans, "sim.predictor_replay");
            auto p = sim::makePredictor(sim::PredictorKind::Tournament,
                                        mc.predictorEntries,
                                        mc.predictorHistoryBits);
            conds = 0;
            double t0 = threadCpuNow();
            for (const Rec &r : recs) {
                if (r.cond) {
                    checksum += p->predict(r.pc) != r.taken;
                    p->update(r.pc, r.taken);
                    ++conds;
                }
            }
            pred.add((threadCpuNow() - t0) / double(conds));
        }
        {
            Scope sc(spans, "sim.btac_replay");
            sim::Btac b(mc.btac);
            branches = 0;
            double t0 = threadCpuNow();
            for (size_t i = 0; i + 1 < recs.size(); ++i) {
                const Rec &r = recs[i];
                if (r.branch) {
                    sim::Btac::Lookup lk = b.lookup(r.pc);
                    b.update(r.pc, r.taken, recs[i + 1].pc, lk);
                    checksum += lk.predict;
                    ++branches;
                }
            }
            btac.add((threadCpuNow() - t0) / double(branches));
        }
    }
    out.check(memOps > 0 && conds > 0 && branches > 0,
              "component replay captured no memory ops or branches");
    layer["sim.l1d_access_ns"] = {medianNs(l1d), "ns"};
    layer["sim.predictor_ns"] = {medianNs(pred), "ns"};
    layer["sim.btac_ns"] = {medianNs(btac), "ns"};
    detail["replay.records"] = {double(recs.size()), "count"};
    detail["replay.checksum"] = {double(checksum), "count"};
}

/** Extra ns/inst of an attached PmuSampler or CpiStackSink. */
void
sinkOverhead(uint64_t seed, uint64_t budget, Spans &spans, Outcome &out,
             Metrics &layer)
{
    Scope s(spans, "layers.sinks");
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Fasta;
    wc.seed = seed;
    wc.simInstructionBudget = budget;
    workloads::Workload w(wc);
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline,
                              sim::MachineConfig::power5Baseline());
    obs::PmuSampler pmu(10'000);
    obs::CpiStackSink cpi;
    sim::TraceSink *sinks[] = {nullptr, &pmu, &cpi};
    const char *names[] = {"sim.no_sink", "obs.pmu_sampler",
                           "obs.cpi_sink"};
    Samples perInst[3];
    sim::Counters counts[3];
    for (int rep = 0; rep < kReps; ++rep) {
        for (int k = 0; k < 3; ++k) {
            Scope sk(spans, names[k]);
            km.reset(); // detaches any sink
            km.setTraceSink(sinks[k]);
            double t0 = threadCpuNow();
            counts[k] = w.simulate(km).counters;
            perInst[k].add((threadCpuNow() - t0) /
                           double(counts[k].instructions));
        }
    }
    out.check(counts[1] == counts[0] && counts[2] == counts[0],
              "attaching a trace sink changed simulated counts");
    double base = perInst[0].median();
    layer["obs.pmu_sampler_pct"] = {
        100.0 * (perInst[1].median() / base - 1.0), "%"};
    layer["obs.cpi_sink_pct"] = {
        100.0 * (perInst[2].median() / base - 1.0), "%"};
}

/** parseJobLine + resultLine per request line of the serve mix. */
void
codecCost(uint64_t seed, Spans &spans, Outcome &out, Metrics &layer)
{
    Scope s(spans, "layers.codec");
    std::vector<std::string> lines;
    for (uint64_t i = 0; i < kServeMix; ++i)
        lines.push_back(serveRequestLine(serveSpec(seed, i)));
    serve::JobResult res;
    res.ok = true;
    res.score = 1234;
    res.counters.instructions = 9455;
    res.counters.cycles = 15210;
    bool ok = true;
    size_t bytes = 0;
    Samples perLine;
    for (int rep = 0; rep < kReps; ++rep) {
        double t0 = threadCpuNow();
        for (int inner = 0; inner < 20; ++inner) {
            for (const std::string &line : lines) {
                serve::JobSpec spec;
                std::string err;
                ok = ok && serve::parseJobLine(line, spec, err);
                res.id = spec.id;
                bytes += serve::resultLine(res).size();
            }
        }
        perLine.add((threadCpuNow() - t0) / double(20 * lines.size()));
    }
    out.check(ok && bytes > 0, "serve codec rejected a mix request line");
    layer["serve.codec_us"] = {perLine.median() * 1e6, "us"};
}

/** A kernel problem set with the inputs it points into. */
struct Problems
{
    std::vector<bio::Sequence> seqs;
    std::vector<bio::Plan7Model> models;
    std::vector<kernels::AlignProblem> align[2]; ///< ForwardPass, Dropgsw
    std::vector<kernels::ViterbiProblem> viterbi;
    std::vector<kernels::ExtendProblem> extend;
};

void
makeProblems(Problems &p, uint64_t seed, size_t len)
{
    const bio::SubstitutionMatrix &m = bio::SubstitutionMatrix::blosum62();
    const size_t kPerKernel = 8;
    p.seqs.reserve(4 * kPerKernel * 2);
    p.models.reserve(kPerKernel);
    for (size_t i = 0; i < kPerKernel; ++i) {
        bio::SequenceGenerator g(seed * 131 + i);
        for (int k = 0; k < 2; ++k) {
            p.seqs.push_back(g.random(len, "a"));
            p.seqs.push_back(g.mutate(p.seqs.back(),
                                      bio::MutationModel{0.3, 0.05, 0.05},
                                      "b"));
            size_t n = p.seqs.size();
            p.align[k].push_back({&p.seqs[n - 2], &p.seqs[n - 1], &m,
                                  bio::GapPenalty{10, 1}});
        }
        p.seqs.push_back(g.random(len, "q"));
        p.seqs.push_back(g.mutate(p.seqs.back(),
                                  bio::MutationModel{0.25, 0.04, 0.04},
                                  "s"));
        size_t n = p.seqs.size();
        p.extend.push_back({&p.seqs[n - 2], 0, &p.seqs[n - 1], 0, &m,
                            bio::GapPenalty{10, 1}, 30});
        std::vector<bio::Sequence> fam =
            g.family(5, len, bio::MutationModel{0.15, 0.02, 0.02});
        p.models.push_back(bio::Plan7Model::fromFamily(fam));
        p.seqs.push_back(fam[i % fam.size()]);
        p.viterbi.push_back({&p.models.back(), &p.seqs.back()});
    }
}

/**
 * Native-reference time as a share of KernelMachine::run, on problems
 * the size of the main path's inputs and in its simulation mode.
 */
void
refShare(uint64_t seed, MainPath path, Spans &spans, Outcome &out,
         Metrics &layer)
{
    Scope s(spans, "layers.ref_share");
    Problems p;
    makeProblems(p, seed, path == MainPath::Serve ? 16 : 120);
    bool functional = path == MainPath::Fast;
    const sim::MachineConfig mc = sim::MachineConfig::power5Baseline();
    kernels::KernelMachine fwd(kernels::KernelKind::ForwardPass,
                               mpc::Variant::Baseline, mc);
    kernels::KernelMachine sw(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline, mc);
    kernels::KernelMachine vit(kernels::KernelKind::P7Viterbi,
                               mpc::Variant::Baseline, mc);
    kernels::KernelMachine ext(kernels::KernelKind::SemiGAlign,
                               mpc::Variant::Baseline, mc);

    double refTime = 0.0, runTime = 0.0;
    int64_t mismatch = 0;
    auto time = [&](auto &&ref, kernels::KernelMachine &km,
                    const auto &problem) {
        double t0 = threadCpuNow();
        mismatch += ref(problem);
        double t1 = threadCpuNow();
        km.reset();
        km.setFunctionalOnly(functional);
        double t2 = threadCpuNow();
        mismatch -= km.run(problem);
        refTime += t1 - t0;
        runTime += threadCpuNow() - t2;
    };
    for (int rep = 0; rep < 3; ++rep) {
        Scope sr(spans, "kernels.run");
        for (const auto &q : p.align[0])
            time(kernels::refForwardPass, fwd, q);
        for (const auto &q : p.align[1])
            time(kernels::refDropgsw, sw, q);
        for (const auto &q : p.viterbi)
            time(kernels::refViterbi, vit, q);
        for (const auto &q : p.extend)
            time(kernels::refSemiGAlign, ext, q);
    }
    out.check(mismatch == 0, "simulated kernel scores differ from ref*");
    layer["kernels.ref_share_pct"] = {100.0 * refTime / runTime, "%"};
}

} // namespace

void
measureLayers(uint64_t seed, MainPath path, uint64_t budget, Spans &spans,
              Outcome &out, Metrics &layer, Metrics &detail)
{
    timingPerConfig(seed, budget, spans, layer);
    componentReplay(seed, budget, spans, out, layer, detail);
    sinkOverhead(seed, budget, spans, out, layer);
    codecCost(seed, spans, out, layer);
    refShare(seed, path, spans, out, layer);
}

} // namespace perfbench
