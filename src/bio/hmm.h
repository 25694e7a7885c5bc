/**
 * @file
 * Plan7 profile hidden Markov models in the style of HMMER2: integer
 * log-odds scores and the P7Viterbi dynamic-programming recurrence the
 * paper identifies as Hmmer's dominant kernel.  A simplified Plan7
 * topology is used: match/insert/delete states per node plus
 * begin/end; the J/C/N loop states of full Plan7 are omitted (they do
 * not participate in the hot loop).
 */

#ifndef BIOPERF5_BIO_HMM_H
#define BIOPERF5_BIO_HMM_H

#include <cstdint>
#include <string>
#include <vector>

#include "bio/sequence.h"

namespace bp5::bio {

/** Integer log-odds Plan7 model (scores scaled by kScale). */
class Plan7Model
{
  public:
    /** Score scale: HMMER2 uses 1000 * log2; we use 100 * log2. */
    static constexpr int kScale = 100;
    /** "Minus infinity" for impossible transitions. */
    static constexpr int32_t kNegInf = -1000000;

    Plan7Model() = default;

    /**
     * Build a model from a gapped alignment (rows of equal length,
     * '-' for gaps).  Columns with at least half occupancy become
     * match states; Laplace pseudocounts smooth all distributions.
     */
    static Plan7Model fromAlignment(const std::vector<std::string> &rows,
                                    Alphabet alphabet);

    /** Build from a family of unaligned sequences (aligns them first). */
    static Plan7Model fromFamily(const std::vector<Sequence> &family);

    unsigned length() const { return m_; }
    Alphabet alphabet() const { return alphabet_; }

    // Scores (node j in 1..M, residue code x).
    int32_t matchScore(unsigned j, unsigned x) const
    {
        return msc_[j * alphabetSize(alphabet_) + x];
    }
    int32_t insertScore(unsigned, unsigned) const { return isc_; }

    // Transitions (indexed by source node).
    int32_t tMM(unsigned j) const { return tmm_[j]; }
    int32_t tMI(unsigned j) const { return tmi_[j]; }
    int32_t tMD(unsigned j) const { return tmd_[j]; }
    int32_t tIM(unsigned j) const { return tim_[j]; }
    int32_t tII(unsigned j) const { return tii_[j]; }
    int32_t tDM(unsigned j) const { return tdm_[j]; }
    int32_t tDD(unsigned j) const { return tdd_[j]; }
    int32_t tBM(unsigned j) const { return tbm_[j]; } ///< begin->match
    int32_t tME(unsigned j) const { return tme_[j]; } ///< match->end

    /**
     * P7Viterbi: best log-odds score (scaled) of aligning @p seq to
     * the model.  This is the reference for the simulated kernel.
     */
    int32_t viterbi(const Sequence &seq) const;

    /** Forward algorithm (log-odds, scaled); >= viterbi score. */
    double forward(const Sequence &seq) const;

  private:
    Alphabet alphabet_ = Alphabet::Protein;
    unsigned m_ = 0;
    std::vector<int32_t> msc_;  ///< (m_+1) x alphabet match emissions
    int32_t isc_ = 0;           ///< flat insert emission score
    std::vector<int32_t> tmm_, tmi_, tmd_, tim_, tii_, tdm_, tdd_;
    std::vector<int32_t> tbm_, tme_;
};

/** One database hit from hmmpfam-style search. */
struct HmmHit
{
    size_t seqIndex;
    int32_t score;
};

/**
 * Score every sequence against the model (hmmpfam/hmmsearch style);
 * hits above @p threshold, sorted by descending score.
 */
std::vector<HmmHit> hmmSearch(const Plan7Model &model,
                              const std::vector<Sequence> &db,
                              int32_t threshold);

} // namespace bp5::bio

#endif // BIOPERF5_BIO_HMM_H
