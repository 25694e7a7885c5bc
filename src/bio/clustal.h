/**
 * @file
 * Clustalw-style progressive multiple sequence alignment, with the
 * three stages of the real application (paper section II):
 *
 *   1. all-against-all pairwise alignment producing a distance matrix
 *      (the forward_pass / pairalign stage that dominates runtime),
 *   2. guide-tree construction (UPGMA or neighbor-joining), and
 *   3. progressive profile-profile alignment following the tree.
 */

#ifndef BIOPERF5_BIO_CLUSTAL_H
#define BIOPERF5_BIO_CLUSTAL_H

#include <string>
#include <vector>

#include "bio/align.h"
#include "bio/scoring.h"
#include "bio/sequence.h"

namespace bp5::bio {

/** Symmetric pairwise distance matrix (1 - fractional identity). */
class DistanceMatrix
{
  public:
    explicit DistanceMatrix(size_t n) : n_(n), d_(n * n, 0.0) {}

    size_t size() const { return n_; }
    double at(size_t i, size_t j) const { return d_[i * n_ + j]; }
    void set(size_t i, size_t j, double v);

  private:
    size_t n_;
    std::vector<double> d_;
};

/**
 * Stage 1: pairwise distances from global alignments.
 * Performs n(n-1)/2 Needleman-Wunsch alignments.
 */
DistanceMatrix pairwiseDistances(const std::vector<Sequence> &seqs,
                                 const SubstitutionMatrix &m,
                                 const GapPenalty &gap);

/** A rooted binary guide tree stored as an array of nodes. */
struct GuideTree
{
    struct Node
    {
        int left = -1;   ///< child node index (-1 for leaves)
        int right = -1;
        int leaf = -1;   ///< sequence index for leaves
        double height = 0.0;
    };

    std::vector<Node> nodes;
    int root = -1;

    bool isLeaf(int n) const { return nodes[size_t(n)].leaf >= 0; }

    /** Newick rendering (names from @p names, heights as lengths). */
    std::string newick(const std::vector<std::string> &names) const;
};

/** Stage 2a: UPGMA clustering of @p d. */
GuideTree upgmaTree(const DistanceMatrix &d);

/** Stage 2b: neighbor-joining (rooted at the final join). */
GuideTree njTree(const DistanceMatrix &d);

/** An alignment profile: per-member gapped rows over a common length. */
class Profile
{
  public:
    /** Profile of a single ungapped sequence. */
    Profile(const Sequence &seq, size_t member_index);

    size_t columns() const { return rows_.empty() ? 0 : rows_[0].size(); }
    size_t members() const { return rows_.size(); }
    const std::vector<std::string> &rows() const { return rows_; }
    const std::vector<size_t> &memberIndex() const { return members_; }

    /** Align and merge two profiles (progressive step). */
    static Profile align(const Profile &a, const Profile &b,
                         const SubstitutionMatrix &m,
                         const GapPenalty &gap);

  private:
    Profile() = default;

    Alphabet alphabet_ = Alphabet::Protein;
    std::vector<std::string> rows_;   ///< letters + '-' per member
    std::vector<size_t> members_;     ///< original sequence indices
};

/** Result of the full pipeline. */
struct Msa
{
    std::vector<std::string> rows; ///< aligned letters, input order
    std::vector<std::string> names;
    GuideTree tree;
    DistanceMatrix distances{0};

    /** Sum-of-pairs score of the final alignment. */
    int64_t sumOfPairsScore(const SubstitutionMatrix &m,
                            const GapPenalty &gap) const;
};

/** Guide-tree construction method. */
enum class TreeMethod { Upgma, NeighborJoining };

/** Stage 1+2+3: the whole Clustalw-style pipeline. */
Msa progressiveAlign(const std::vector<Sequence> &seqs,
                     const SubstitutionMatrix &m, const GapPenalty &gap,
                     TreeMethod method = TreeMethod::Upgma);

} // namespace bp5::bio

#endif // BIOPERF5_BIO_CLUSTAL_H
