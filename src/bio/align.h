/**
 * @file
 * Pairwise sequence alignment with affine gaps (Gotoh's algorithm):
 * global (Needleman-Wunsch, the Clustalw forward_pass recurrence) and
 * local (Smith-Waterman, the Fasta ssearch/dropgsw recurrence).
 *
 * The recurrence follows the paper's Algorithm 1 exactly — matrices
 * V/E/F/G, gap initiation penalty Wg and extension penalty Ws:
 *
 *     G(i,j) = V(i-1,j-1) + W(a_i, b_j)
 *     E(i,j) = max(E(i,j-1), V(i,j-1) - Wg) - Ws
 *     F(i,j) = max(F(i-1,j), V(i-1,j) - Wg) - Ws
 *     V(i,j) = max(E(i,j), F(i,j), G(i,j) [, 0 for local])
 *
 * The score-only variants are the references that the simulated
 * MiniPOWER kernels must match bit-for-bit.
 */

#ifndef BIOPERF5_BIO_ALIGN_H
#define BIOPERF5_BIO_ALIGN_H

#include <cstdint>
#include <string>

#include "bio/scoring.h"
#include "bio/sequence.h"

namespace bp5::bio {

/** A pairwise alignment with gapped strings and bookkeeping. */
struct Alignment
{
    std::string alignedA; ///< residues and '-' gaps
    std::string alignedB;
    int64_t score = 0;
    size_t startA = 0; ///< first aligned residue of A (local)
    size_t startB = 0;
    size_t endA = 0;   ///< one past the last aligned residue
    size_t endB = 0;

    size_t length() const { return alignedA.size(); }

    /** Matching positions / alignment columns (gaps count as columns). */
    double identity() const;

    /** Number of exactly matching columns. */
    size_t matches() const;
};

/** Global (Needleman-Wunsch) alignment score, O(min) memory. */
int64_t nwScore(const Sequence &a, const Sequence &b,
                const SubstitutionMatrix &m, const GapPenalty &gap);

/** Global alignment with traceback (O(m*n) memory). */
Alignment nwAlign(const Sequence &a, const Sequence &b,
                  const SubstitutionMatrix &m, const GapPenalty &gap);

/** Local (Smith-Waterman) best score, O(n) memory. */
int64_t swScore(const Sequence &a, const Sequence &b,
                const SubstitutionMatrix &m, const GapPenalty &gap);

/** Local alignment with traceback (O(m*n) memory). */
Alignment swAlign(const Sequence &a, const Sequence &b,
                  const SubstitutionMatrix &m, const GapPenalty &gap);

} // namespace bp5::bio

#endif // BIOPERF5_BIO_ALIGN_H
