/**
 * @file
 * KernelMachine: loads a compiled kernel into a simulated machine,
 * marshals problems into simulated memory, runs with timing, and
 * validates every result against the native reference.
 */

#include "kernels/kernels.h"

#include "analysis/lint.h"
#include "support/logging.h"

namespace bp5::kernels {

namespace {

/** Bump allocator over simulated memory. */
class DataWriter
{
  public:
    explicit DataWriter(sim::Memory &mem) : mem_(mem) {}

    uint64_t
    bytes(const void *src, size_t len)
    {
        uint64_t addr = cursor_;
        mem_.writeBlock(addr, src, len);
        cursor_ = (cursor_ + len + 7) & ~7ULL;
        return addr;
    }

    uint64_t
    codesOf(const bio::Sequence &s, size_t from = 0)
    {
        return bytes(s.codes().data() + from, s.size() - from);
    }

    /** Substitution matrix as int32 row-major 20x20 (or 4x4). */
    uint64_t
    matrix(const bio::SubstitutionMatrix &m)
    {
        std::vector<int32_t> t;
        unsigned n = bio::SubstitutionMatrix::kMaxResidues;
        t.reserve(n * n);
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                bool in = i < m.size() && j < m.size();
                t.push_back(in ? m.score(i, j) : 0);
            }
        }
        return bytes(t.data(), t.size() * 4);
    }

    uint64_t
    i64Array(const std::vector<int64_t> &v)
    {
        return bytes(v.data(), v.size() * 8);
    }

    /** Reserve zeroed space. */
    uint64_t
    space(size_t len)
    {
        std::vector<uint8_t> z(len, 0);
        return bytes(z.data(), len);
    }

  private:
    sim::Memory &mem_;
    uint64_t cursor_ = kDataBase;
};

} // namespace

KernelMachine::KernelMachine(KernelKind kind, mpc::Variant variant,
                             const sim::MachineConfig &config)
    : kind_(kind), variant_(variant),
      compiled_(compileKernel(kind, variant)),
      machine_(config)
{
    masm::Program prog = compiled_.program(kCodeBase);
    // Load-time verification: a compiled kernel with a definite binary
    // bug (undefined register read, branch out of the image, ...) must
    // never reach the simulator — running it would corrupt experiment
    // numbers far less visibly than this panic.
    analysis::LintReport report = analysis::lintProgram(prog);
    if (report.errors())
        panic("compiled %s/%s kernel failed binary lint:\n%s",
              kernelName(kind), mpc::variantName(variant),
              report.toText().c_str());
    machine_.loadProgram(prog);
}

void
KernelMachine::reset()
{
    machine_.reset(); // also detaches the machine-side trace sink
    totals_ = sim::Counters();
    functionalOnly_ = false;
}

KernelMachine &
MachinePool::acquire(KernelKind kind, mpc::Variant variant,
                     const sim::MachineConfig &config)
{
    for (Entry &e : entries_) {
        if (e.kind == kind && e.variant == variant && e.config == config) {
            e.km->reset();
            return *e.km;
        }
    }
    entries_.push_back(
        {kind, variant, config,
         std::make_unique<KernelMachine>(kind, variant, config)});
    return *entries_.back().km;
}

namespace {

/** A marshalled invocation: argument registers and expected score. */
struct Call
{
    std::vector<uint64_t> args;
    int64_t expected;
};

Call
marshal(DataWriter &w, KernelKind kind, const AlignProblem &p)
{
    uint64_t aPtr = w.codesOf(*p.a);
    uint64_t bPtr = w.codesOf(*p.b);
    uint64_t mPtr = w.matrix(*p.matrix);
    uint64_t vPtr = w.space((p.b->size() + 1) * 8);
    uint64_t fPtr = w.space((p.b->size() + 1) * 8);
    std::vector<int64_t> gp = {p.gap.open, p.gap.extend};
    uint64_t gpPtr = w.i64Array(gp);

    int64_t expected = kind == KernelKind::ForwardPass
                           ? refForwardPass(p)
                           : refDropgsw(p);
    return {{aPtr, p.a->size(), bPtr, p.b->size(), mPtr, vPtr, fPtr, gpPtr},
            expected};
}

Call
marshal(DataWriter &w, KernelKind, const ViterbiProblem &p)
{
    const bio::Plan7Model &m = *p.model;
    unsigned M = m.length();
    unsigned K = bio::alphabetSize(m.alphabet());

    auto widen = [&](auto getter) {
        std::vector<int64_t> v(M + 1);
        for (unsigned j = 0; j <= M; ++j)
            v[j] = getter(j);
        return v;
    };
    std::vector<int64_t> msc((M + 1) * K, 0);
    for (unsigned j = 1; j <= M; ++j) {
        for (unsigned x = 0; x < K; ++x)
            msc[j * K + x] = m.matchScore(j, x);
    }
    uint64_t mscP = w.i64Array(msc);
    uint64_t tmmP = w.i64Array(widen([&](unsigned j) { return m.tMM(j); }));
    uint64_t tmiP = w.i64Array(widen([&](unsigned j) { return m.tMI(j); }));
    uint64_t tmdP = w.i64Array(widen([&](unsigned j) { return m.tMD(j); }));
    uint64_t timP = w.i64Array(widen([&](unsigned j) { return m.tIM(j); }));
    uint64_t tiiP = w.i64Array(widen([&](unsigned j) { return m.tII(j); }));
    uint64_t tdmP = w.i64Array(widen([&](unsigned j) { return m.tDM(j); }));
    uint64_t tddP = w.i64Array(widen([&](unsigned j) { return m.tDD(j); }));
    uint64_t tbmP = w.i64Array(widen([&](unsigned j) { return m.tBM(j); }));
    uint64_t tmeP = w.i64Array(widen([&](unsigned j) { return m.tME(j); }));

    std::vector<int64_t> desc = {
        static_cast<int64_t>(M),
        static_cast<int64_t>(mscP), static_cast<int64_t>(tmmP),
        static_cast<int64_t>(tmiP), static_cast<int64_t>(tmdP),
        static_cast<int64_t>(timP), static_cast<int64_t>(tiiP),
        static_cast<int64_t>(tdmP), static_cast<int64_t>(tddP),
        static_cast<int64_t>(tbmP), static_cast<int64_t>(tmeP),
        m.insertScore(0, 0), static_cast<int64_t>(K),
    };
    // Re-order to the kernel's descriptor layout: M, msc, tmm, tmi,
    // tmd, tim, tii, tdm, tdd, tbm, tme, isc, K.
    uint64_t descP = w.i64Array(desc);
    uint64_t seqP = w.codesOf(*p.seq);
    uint64_t wsP = w.space(6 * (M + 1) * 8);

    return {{descP, seqP, p.seq->size(), wsP}, refViterbi(p)};
}

Call
marshal(DataWriter &w, KernelKind, const ExtendProblem &p)
{
    uint64_t aPtr = w.codesOf(*p.a, p.aFrom);
    uint64_t bPtr = w.codesOf(*p.b, p.bFrom);
    uint64_t mPtr = w.matrix(*p.matrix);
    size_t alen = p.a->size() - p.aFrom;
    size_t blen = p.b->size() - p.bFrom;
    uint64_t vPtr = w.space((blen + 1) * 8);
    uint64_t fPtr = w.space((blen + 1) * 8);
    std::vector<int64_t> gp = {p.gap.open, p.gap.extend, p.xdrop};
    uint64_t gpPtr = w.i64Array(gp);

    return {{aPtr, alen, bPtr, blen, mPtr, vPtr, fPtr, gpPtr},
            refSemiGAlign(p)};
}

Call
marshal(DataWriter &w, KernelKind, const SankoffProblem &p)
{
    const bio::GuideTree &tree = *p.tree;
    unsigned K = p.cost->size();
    size_t numNodes = tree.nodes.size();
    BP5_ASSERT(tree.root == static_cast<int>(numNodes) - 1,
               "sankoff kernel expects the root to be the last node");

    std::vector<int64_t> recs;
    recs.reserve(numNodes * 3);
    for (const auto &nd : tree.nodes) {
        recs.push_back(nd.leaf >= 0 ? -1 : nd.left);
        recs.push_back(nd.leaf >= 0 ? -1 : nd.right);
        recs.push_back(nd.leaf >= 0
                           ? p.states[static_cast<size_t>(nd.leaf)]
                           : 0);
    }
    uint64_t nodesP = w.i64Array(recs);
    std::vector<int64_t> costs(size_t(K) * K);
    for (unsigned a = 0; a < K; ++a) {
        for (unsigned b = 0; b < K; ++b)
            costs[size_t(a) * K + b] = p.cost->cost(a, b);
    }
    uint64_t costP = w.i64Array(costs);
    uint64_t workP = w.space(numNodes * K * 8);

    return {{nodesP, numNodes, costP, workP, K}, refSankoff(p)};
}

/** Invocation alternative names, in the variant's order. */
constexpr const char *kProblemNames[] = {"align", "viterbi", "extend",
                                         "sankoff"};

/** The Invocation alternative kernel @p k runs. */
size_t
problemIndex(KernelKind k)
{
    switch (k) {
      case KernelKind::ForwardPass:
      case KernelKind::Dropgsw: return 0;
      case KernelKind::P7Viterbi: return 1;
      case KernelKind::SemiGAlign: return 2;
      case KernelKind::Sankoff: return 3;
      default: panic("bad kernel kind %d", int(k));
    }
}

} // namespace

int64_t
KernelMachine::run(const Invocation &inv)
{
    const char *problem = kProblemNames[inv.index()];
    BP5_ASSERT(inv.index() == problemIndex(kind_),
               "%s problem on non-%s kernel %s", problem, problem,
               kernelName(kind_));
    DataWriter w(machine_.mem());
    Call call = std::visit(
        [&](const auto &p) { return marshal(w, kind_, p); }, inv);

    BP5_ASSERT(call.args.size() <= 8, "too many kernel arguments");
    sim::CoreState &st = machine_.state();
    st.pc = kCodeBase;
    st.gpr[1] = kStackTop;
    for (size_t i = 0; i < call.args.size(); ++i)
        st.gpr[3 + i] = call.args[i];

    sim::RunResult r = functionalOnly_
                           ? machine_.runFunctional(500'000'000)
                           : machine_.run(500'000'000);
    if (!r.halted) {
        panic("kernel %s (%s) did not halt", kernelName(kind_),
              mpc::variantName(variant_));
    }
    if (r.exitCode != call.expected) {
        panic("kernel %s (%s) returned %lld, reference says %lld",
              kernelName(kind_), mpc::variantName(variant_),
              static_cast<long long>(r.exitCode),
              static_cast<long long>(call.expected));
    }
    totals_.add(r.counters);
    return r.exitCode;
}

} // namespace bp5::kernels
