/**
 * @file
 * Sankoff small parsimony — the dynamic program at the heart of
 * Phylip-class phylogeny packages, which the paper's conclusion names
 * as a target its results extend to.  Given a rooted binary tree with
 * sequences at the leaves and a per-substitution cost matrix, compute
 * the minimum total substitution cost over all assignments of
 * ancestral states.  The per-node recurrence is a nest of min()
 * statements — the same value-dependent-branch structure as the
 * alignment kernels.
 */

#ifndef BIOPERF5_BIO_PARSIMONY_H
#define BIOPERF5_BIO_PARSIMONY_H

#include <cstdint>
#include <span>
#include <vector>

#include "bio/clustal.h"
#include "bio/sequence.h"

namespace bp5::bio {

/** Substitution cost matrix for parsimony (non-negative). */
class ParsimonyCost
{
  public:
    explicit ParsimonyCost(Alphabet alphabet, int64_t mismatch = 1);

    /** Unit cost: 0 on the diagonal, 1 elsewhere (Fitch-equivalent). */
    static ParsimonyCost unit(Alphabet alphabet);

    /** Transitions cheaper than transversions (DNA only). */
    static ParsimonyCost transitionTransversion(int64_t ts = 1,
                                                int64_t tv = 2);

    int64_t cost(unsigned a, unsigned b) const
    {
        return table_[a * k_ + b];
    }
    void set(unsigned a, unsigned b, int64_t v);
    unsigned size() const { return k_; }

  private:
    unsigned k_;
    std::vector<int64_t> table_;
};

/**
 * Minimum parsimony cost of one character (site): @p states gives the
 * leaf state per sequence, @p tree maps leaves to sequence indices.
 */
int64_t sankoffSite(const GuideTree &tree, std::span<const uint8_t> states,
                    const ParsimonyCost &cost);

} // namespace bp5::bio

#endif // BIOPERF5_BIO_PARSIMONY_H
