/**
 * @file
 * What the bp5-serve and bp5-trace front ends share: the canned
 * synthetic inputs a kernel runs on, and the name lookups for their
 * kernel / variant / machine / memory-system arguments.
 */

#include "kernels/kernels.h"

#include <cctype>

#include "bio/clustal.h"
#include "bio/generator.h"
#include "support/logging.h"

namespace bp5::kernels {

namespace {

const bio::GapPenalty kGap{10, 1};

} // namespace

SyntheticInputs::SyntheticInputs(KernelKind kind, uint64_t seed, unsigned n)
    : kind_(kind)
{
    switch (kind) {
      case KernelKind::ForwardPass:
      case KernelKind::Dropgsw: {
        bio::SequenceGenerator g(seed);
        seqs_.push_back(g.random(n, "a"));
        seqs_.push_back(
            g.mutate(seqs_[0], bio::MutationModel{0.3, 0.05, 0.05}, "b"));
        break;
      }
      case KernelKind::SemiGAlign: {
        bio::SequenceGenerator g(seed);
        seqs_.push_back(g.random(n, "query"));
        seqs_.push_back(g.mutate(
            seqs_[0], bio::MutationModel{0.25, 0.04, 0.04}, "subject"));
        break;
      }
      case KernelKind::P7Viterbi: {
        bio::SequenceGenerator g(seed);
        seqs_ = g.family(5, n, bio::MutationModel{0.15, 0.02, 0.02});
        model_ = bio::Plan7Model::fromFamily(seqs_);
        break;
      }
      case KernelKind::Sankoff: {
        // The family is needed only for its tree and its columns.
        leaves_ = 8;
        bio::SequenceGenerator g(seed, bio::Alphabet::Dna);
        std::vector<bio::Sequence> fam =
            g.family(leaves_, n, bio::MutationModel{0.2, 0.0, 0.0});
        tree_ = bio::upgmaTree(bio::pairwiseDistances(
            fam, bio::SubstitutionMatrix::dna(), kGap));
        states_.resize(size_t(n) * leaves_);
        for (size_t col = 0; col < n; ++col) {
            for (size_t i = 0; i < leaves_; ++i)
                states_[col * leaves_ + i] = fam[i][col];
        }
        break;
      }
      default:
        panic("bad kernel kind %d", int(kind));
    }
}

size_t
SyntheticInputs::size() const
{
    switch (kind_) {
      case KernelKind::P7Viterbi:
        return seqs_.size();
      case KernelKind::Sankoff:
        return states_.size() / leaves_;
      default:
        return 1;
    }
}

Invocation
SyntheticInputs::invocation(size_t i) const
{
    BP5_ASSERT(i < size(), "invocation %zu of %zu", i, size());
    const bio::SubstitutionMatrix *blosum62 =
        &bio::SubstitutionMatrix::blosum62();
    switch (kind_) {
      case KernelKind::SemiGAlign:
        return ExtendProblem{&seqs_[0], 0, &seqs_[1], 0, blosum62, kGap, 30};
      case KernelKind::P7Viterbi:
        return ViterbiProblem{&model_, &seqs_[i]};
      case KernelKind::Sankoff:
        return SankoffProblem{
            &tree_, std::span(states_).subspan(i * leaves_, leaves_),
            &cost_};
      default:
        return AlignProblem{&seqs_[0], &seqs_[1], blosum62, kGap};
    }
}

std::string
normalizedName(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += char(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

bool
kernelFromName(const std::string &name, KernelKind &out)
{
    std::string want = normalizedName(name);
    for (int k = 0; k < int(KernelKind::NUM_KERNELS); ++k) {
        auto kind = KernelKind(k);
        if (normalizedName(kernelName(kind)) == want ||
            normalizedName(kernelApp(kind)) == want) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
variantFromName(const std::string &name, mpc::Variant &out)
{
    std::string want = normalizedName(name);
    if (want == "baseline") {
        out = mpc::Variant::Baseline;
        return true;
    }
    for (int v = 0; v < int(mpc::Variant::NUM_VARIANTS); ++v) {
        if (normalizedName(mpc::variantName(mpc::Variant(v))) == want) {
            out = mpc::Variant(v);
            return true;
        }
    }
    return false;
}

bool
machineFromName(const std::string &name, sim::MachineConfig &out)
{
    std::string want = normalizedName(name);
    if (want == "baseline")
        out = sim::MachineConfig::power5Baseline();
    else if (want == "btac")
        out = sim::MachineConfig::power5WithBtac();
    else if (want == "fxu3")
        out = sim::MachineConfig::power5WithFxu(3);
    else if (want == "fxu4")
        out = sim::MachineConfig::power5WithFxu(4);
    else if (want == "enhanced")
        out = sim::MachineConfig::power5Enhanced();
    else
        return false;
    return true;
}

bool
memsysFromName(const std::string &name, sim::MachineConfig &mc)
{
    std::string want = normalizedName(name);
    if (want == "classic") {
        mc.memsys = sim::MemSysParams();
        return true;
    }
    if (want != "lsq" && want != "lsqnextline" && want != "lsqstride")
        return false;
    mc.memsys.mode = sim::MemSysParams::Mode::Lsq;
    if (want == "lsqnextline")
        mc.memsys.l1dPrefetch.kind = sim::PrefetchParams::Kind::NextLine;
    else if (want == "lsqstride")
        mc.memsys.l1dPrefetch.kind = sim::PrefetchParams::Kind::Stride;
    return true;
}

} // namespace bp5::kernels
