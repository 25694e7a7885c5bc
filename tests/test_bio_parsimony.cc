/**
 * @file
 * Sankoff small-parsimony tests: cost matrices, hand-checked site
 * scores on small trees, Fitch equivalence under unit costs, and
 * consistency properties.
 */

#include <gtest/gtest.h>

#include "bio/generator.h"
#include "bio/parsimony.h"

namespace bp5::bio {
namespace {

/** Leaf states of one site (sankoffSite takes a view of them). */
using States = std::vector<uint8_t>;

/** Sum of sankoffSite over the columns of equal-length sequences. */
int64_t
totalCost(const GuideTree &tree, const std::vector<Sequence> &seqs,
          const ParsimonyCost &cost)
{
    int64_t total = 0;
    States states(seqs.size());
    for (size_t col = 0; col < seqs[0].size(); ++col) {
        for (size_t i = 0; i < seqs.size(); ++i)
            states[i] = seqs[i][col];
        total += sankoffSite(tree, states, cost);
    }
    return total;
}

/** Balanced four-leaf tree ((0,1),(2,3)). */
GuideTree
fourLeafTree()
{
    GuideTree t;
    for (int i = 0; i < 4; ++i) {
        GuideTree::Node leaf;
        leaf.leaf = i;
        t.nodes.push_back(leaf);
    }
    GuideTree::Node j01;
    j01.left = 0;
    j01.right = 1;
    t.nodes.push_back(j01); // node 4
    GuideTree::Node j23;
    j23.left = 2;
    j23.right = 3;
    t.nodes.push_back(j23); // node 5
    GuideTree::Node root;
    root.left = 4;
    root.right = 5;
    t.nodes.push_back(root); // node 6
    t.root = 6;
    return t;
}

TEST(ParsimonyCost, UnitMatrix)
{
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.cost(0, 0), 0);
    EXPECT_EQ(c.cost(0, 1), 1);
    EXPECT_EQ(c.cost(3, 2), 1);
}

TEST(ParsimonyCost, TransitionTransversion)
{
    ParsimonyCost c = ParsimonyCost::transitionTransversion(1, 2);
    // A<->G and C<->T are transitions.
    EXPECT_EQ(c.cost(0, 2), 1);
    EXPECT_EQ(c.cost(2, 0), 1);
    EXPECT_EQ(c.cost(1, 3), 1);
    EXPECT_EQ(c.cost(0, 1), 2);
    EXPECT_EQ(c.cost(0, 0), 0);
}

TEST(Sankoff, AllLeavesEqualCostsZero)
{
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    EXPECT_EQ(sankoffSite(t, States{2, 2, 2, 2}, c), 0);
}

TEST(Sankoff, SingleDeviantLeafCostsOne)
{
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    EXPECT_EQ(sankoffSite(t, States{0, 2, 2, 2}, c), 1);
    EXPECT_EQ(sankoffSite(t, States{2, 2, 2, 3}, c), 1);
}

TEST(Sankoff, SplitSiteCostsOne)
{
    // (0,1) = A and (2,3) = C: a single change on the root edge.
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    EXPECT_EQ(sankoffSite(t, States{0, 0, 1, 1}, c), 1);
}

TEST(Sankoff, AlternatingSiteCostsTwo)
{
    // Leaves A,C,A,C on ((0,1),(2,3)): two changes are necessary.
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    EXPECT_EQ(sankoffSite(t, States{0, 1, 0, 1}, c), 2);
}

TEST(Sankoff, WeightedCostsSelectCheaperAncestors)
{
    // With transitions (A<->G) cheaper, an A/G split costs 1 while a
    // A/C split costs 2.
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::transitionTransversion(1, 2);
    EXPECT_EQ(sankoffSite(t, States{0, 0, 2, 2}, c), 1);
    EXPECT_EQ(sankoffSite(t, States{0, 0, 1, 1}, c), 2);
}

TEST(Sankoff, FitchBoundUnderUnitCost)
{
    // Under unit costs, the parsimony cost of one site is at most
    // (#distinct states - 1) and at least 1 if more than one state.
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    Rng r(31);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<uint8_t> states(4);
        std::set<uint8_t> distinct;
        for (auto &s : states) {
            s = uint8_t(r.below(4));
            distinct.insert(s);
        }
        int64_t cost = sankoffSite(t, states, c);
        EXPECT_GE(cost, int64_t(distinct.size()) - 1);
        EXPECT_LE(cost, 3);
    }
}

TEST(Sankoff, ScoreSumsOverSites)
{
    GuideTree t = fourLeafTree();
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    std::vector<Sequence> seqs = {
        Sequence("s0", Alphabet::Dna, "AAAA"),
        Sequence("s1", Alphabet::Dna, "AACA"),
        Sequence("s2", Alphabet::Dna, "CAAA"),
        Sequence("s3", Alphabet::Dna, "CATA"),
    };
    // Site costs: col0 split=1, col1 all A=0, col2 {A,C,A,T}=2,
    // col3 all A=0.
    EXPECT_EQ(totalCost(t, seqs, c), 3);
}

TEST(Sankoff, WorksOnGeneratedTrees)
{
    SequenceGenerator g(37, Alphabet::Dna);
    auto fam = g.family(7, 40, MutationModel{0.1, 0.0, 0.0});
    auto d = pairwiseDistances(fam, SubstitutionMatrix::dna(),
                               GapPenalty{10, 1});
    GuideTree t = upgmaTree(d);
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    int64_t score = totalCost(t, fam, c);
    EXPECT_GT(score, 0);
    // Upper bound: every site changed on every leaf edge.
    EXPECT_LT(score, int64_t(fam.size() * fam[0].size()));
    // Determinism.
    EXPECT_EQ(totalCost(t, fam, c), score);
}

TEST(Sankoff, NjTreeAlsoWorks)
{
    SequenceGenerator g(41, Alphabet::Dna);
    auto fam = g.family(6, 30, MutationModel{0.15, 0.0, 0.0});
    auto d = pairwiseDistances(fam, SubstitutionMatrix::dna(),
                               GapPenalty{10, 1});
    GuideTree t = njTree(d);
    ParsimonyCost c = ParsimonyCost::unit(Alphabet::Dna);
    EXPECT_GT(totalCost(t, fam, c), 0);
}

} // namespace
} // namespace bp5::bio
