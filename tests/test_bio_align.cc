/**
 * @file
 * Alignment tests: hand-computed Needleman-Wunsch and Smith-Waterman
 * cases, score/traceback consistency, and property sweeps over random
 * sequence pairs (the recurrence of the paper's Algorithm 1).
 */

#include <gtest/gtest.h>

#include "bio/align.h"
#include "bio/generator.h"

#include <algorithm>

namespace bp5::bio {
namespace {

const SubstitutionMatrix kDna = SubstitutionMatrix::dna(5, -4);
const GapPenalty kGap{10, 1};

Sequence
dna(const std::string &letters)
{
    return Sequence("s", Alphabet::Dna, letters);
}

/** Recompute an alignment's score from its gapped strings. */
int64_t
rescoreAlignment(const Alignment &al, const SubstitutionMatrix &m,
                 const GapPenalty &gap)
{
    int64_t score = 0;
    bool inGapA = false, inGapB = false;
    for (size_t i = 0; i < al.length(); ++i) {
        char a = al.alignedA[i], b = al.alignedB[i];
        if (a == '-') {
            score -= inGapA ? gap.extend : gap.open + gap.extend;
            inGapA = true;
            inGapB = false;
        } else if (b == '-') {
            score -= inGapB ? gap.extend : gap.open + gap.extend;
            inGapB = true;
            inGapA = false;
        } else {
            inGapA = inGapB = false;
            int ca = encodeResidue(m.alphabet(), a);
            int cb = encodeResidue(m.alphabet(), b);
            score += m.score(static_cast<unsigned>(ca),
                             static_cast<unsigned>(cb));
        }
    }
    return score;
}

TEST(Nw, IdenticalSequences)
{
    Sequence a = dna("ACGTACGT");
    EXPECT_EQ(nwScore(a, a, kDna, kGap), 40);
}

TEST(Nw, SingleMismatch)
{
    EXPECT_EQ(nwScore(dna("AC"), dna("GC"), kDna, kGap), 1);
}

TEST(Nw, AffineGapCharges)
{
    // ACGTACGT vs ACGT: one gap of length 4 = open 10 + 4*1.
    EXPECT_EQ(nwScore(dna("ACGTACGT"), dna("ACGT"), kDna, kGap),
              20 - 14);
}

TEST(Nw, EmptyVsNonEmpty)
{
    EXPECT_EQ(nwScore(dna(""), dna("ACG"), kDna, kGap), -13);
    EXPECT_EQ(nwScore(dna(""), dna(""), kDna, kGap), 0);
}

TEST(Nw, OneLongGapBeatsTwoShort)
{
    // Affine: consolidating gaps is preferred.  With open=10 two
    // separate gaps cost 2*open; score should reflect one gap when
    // possible.
    Sequence a = dna("AAAACCCC");
    Sequence b = dna("AAAATTTTCCCC");
    // Best: match 8, one gap length 4 => 40 - 14 = 26.
    EXPECT_EQ(nwScore(a, b, kDna, kGap), 26);
}

TEST(Sw, IdenticalIsSelfScore)
{
    Sequence a = dna("ACGTACGT");
    EXPECT_EQ(swScore(a, a, kDna, kGap), 40);
}

TEST(Sw, FindsLocalIsland)
{
    // Only the AA region aligns; mismatch tails are dropped.
    EXPECT_EQ(swScore(dna("AAAA"), dna("TTAATT"), kDna, kGap), 10);
}

TEST(Sw, NeverNegative)
{
    EXPECT_EQ(swScore(dna("AAAA"), dna("TTTT"), kDna, kGap), 0);
}

TEST(Sw, ProteinExample)
{
    const SubstitutionMatrix &m = SubstitutionMatrix::blosum62();
    Sequence a("a", Alphabet::Protein, "HEAGAWGHEE");
    Sequence b("b", Alphabet::Protein, "PAWHEAE");
    // Classic textbook pair (Durbin et al.): a positive local score.
    int64_t s = swScore(a, b, m, GapPenalty{10, 1});
    EXPECT_GT(s, 0);
    Alignment al = swAlign(a, b, m, GapPenalty{10, 1});
    EXPECT_EQ(al.score, s);
}

TEST(Traceback, GlobalScoreMatchesAlignment)
{
    Alignment al = nwAlign(dna("ACGTACGT"), dna("ACGT"), kDna, kGap);
    EXPECT_EQ(al.score, 6);
    EXPECT_EQ(rescoreAlignment(al, kDna, kGap), al.score);
    // Global alignment covers both sequences fully.
    std::string da, db;
    for (char c : al.alignedA)
        if (c != '-')
            da += c;
    for (char c : al.alignedB)
        if (c != '-')
            db += c;
    EXPECT_EQ(da, "ACGTACGT");
    EXPECT_EQ(db, "ACGT");
}

TEST(Traceback, LocalBoundsAreConsistent)
{
    Sequence a = dna("TTTTACGTACGTTTTT");
    Sequence b = dna("CCCACGTACGTCCC");
    Alignment al = swAlign(a, b, kDna, kGap);
    EXPECT_EQ(al.score, 40); // ACGTACGT island
    EXPECT_EQ(al.endA - al.startA, 8u);
    EXPECT_EQ(rescoreAlignment(al, kDna, kGap), al.score);
    EXPECT_DOUBLE_EQ(al.identity(), 1.0);
}

TEST(Alignment, IdentityAndMatches)
{
    Alignment al;
    al.alignedA = "AC-GT";
    al.alignedB = "ACCGA";
    EXPECT_EQ(al.matches(), 3u);
    EXPECT_DOUBLE_EQ(al.identity(), 3.0 / 5.0);
}

/** Property sweep over random pairs: score == traceback score, and
 *  the gapped strings rescore to the same value. */
class AlignProperty : public ::testing::TestWithParam<int> {};

TEST_P(AlignProperty, ScoreTracebackConsistency)
{
    SequenceGenerator g(1000 + static_cast<uint64_t>(GetParam()));
    const SubstitutionMatrix &m = SubstitutionMatrix::blosum62();
    GapPenalty gap{10, 1};
    size_t la = 20 + g.rng().below(60);
    size_t lb = 20 + g.rng().below(60);
    Sequence a = g.random(la, "a");
    Sequence b = g.mutate(a.subseq(0, std::min(la, lb)),
                          MutationModel{0.3, 0.05, 0.05}, "b");

    int64_t nw = nwScore(a, b, m, gap);
    Alignment nal = nwAlign(a, b, m, gap);
    EXPECT_EQ(nal.score, nw);
    EXPECT_EQ(rescoreAlignment(nal, m, gap), nw);

    int64_t sw = swScore(a, b, m, gap);
    Alignment sal = swAlign(a, b, m, gap);
    EXPECT_EQ(sal.score, sw);
    EXPECT_EQ(rescoreAlignment(sal, m, gap), sw);

    // Local never loses to global and never goes negative.
    EXPECT_GE(sw, std::max<int64_t>(nw, 0));

    // Symmetry (BLOSUM62 is symmetric).
    EXPECT_EQ(nwScore(b, a, m, gap), nw);
    EXPECT_EQ(swScore(b, a, m, gap), sw);
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, AlignProperty,
                         ::testing::Range(0, 25));

} // namespace
} // namespace bp5::bio
