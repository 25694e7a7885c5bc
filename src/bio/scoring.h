/**
 * @file
 * Substitution matrices and gap penalties for sequence alignment.
 * Ships the standard BLOSUM62 protein matrix plus a parametric DNA
 * match/mismatch matrix.
 */

#ifndef BIOPERF5_BIO_SCORING_H
#define BIOPERF5_BIO_SCORING_H

#include <array>
#include <cstdint>
#include <string>

#include "bio/sequence.h"

namespace bp5::bio {

/** A residue-pair substitution score table. */
class SubstitutionMatrix
{
  public:
    static constexpr unsigned kMaxResidues = 20;

    SubstitutionMatrix() = default;
    explicit SubstitutionMatrix(Alphabet alphabet) : alphabet_(alphabet) {}

    /** The standard BLOSUM62 protein matrix. */
    static const SubstitutionMatrix &blosum62();

    /** DNA matrix: +match for equal bases, -mismatch otherwise. */
    static SubstitutionMatrix dna(int match = 5, int mismatch = -4);

    int
    score(unsigned a, unsigned b) const
    {
        return table_[a][b];
    }

    void set(unsigned a, unsigned b, int v);

    Alphabet alphabet() const { return alphabet_; }
    unsigned size() const { return alphabetSize(alphabet_); }

  private:
    Alphabet alphabet_ = Alphabet::Protein;
    std::array<std::array<int16_t, kMaxResidues>, kMaxResidues> table_{};
};

/**
 * Affine gap penalties, expressed as positive costs: a gap of length L
 * costs open + L * extend (the "gap initiation penalty Wg and gap
 * extension penalty Ws" of the paper's Algorithm 1).
 */
struct GapPenalty
{
    int open = 10;
    int extend = 1;

    int cost(int length) const { return open + length * extend; }
};

} // namespace bp5::bio

#endif // BIOPERF5_BIO_SCORING_H
