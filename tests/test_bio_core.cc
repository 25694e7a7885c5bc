/**
 * @file
 * Tests for bio fundamentals: alphabets, sequences, FASTA I/O,
 * substitution matrices and the synthetic-input generator.
 */

#include <gtest/gtest.h>

#include "bio/fasta.h"
#include "bio/generator.h"
#include "bio/scoring.h"
#include "bio/sequence.h"

namespace bp5::bio {
namespace {

TEST(Alphabet, SizesAndLetters)
{
    EXPECT_EQ(alphabetSize(Alphabet::Dna), 4u);
    EXPECT_EQ(alphabetSize(Alphabet::Protein), 20u);
    EXPECT_EQ(std::string(alphabetLetters(Alphabet::Dna)), "ACGT");
    EXPECT_EQ(std::string(alphabetLetters(Alphabet::Protein)).size(),
              20u);
}

TEST(Alphabet, EncodeDecodeRoundTrip)
{
    for (Alphabet a : {Alphabet::Dna, Alphabet::Protein}) {
        for (unsigned c = 0; c < alphabetSize(a); ++c) {
            char l = decodeResidue(a, c);
            EXPECT_EQ(encodeResidue(a, l), static_cast<int>(c));
            EXPECT_EQ(encodeResidue(
                          a, static_cast<char>(std::tolower(l))),
                      static_cast<int>(c));
        }
    }
    EXPECT_EQ(encodeResidue(Alphabet::Dna, 'X'), -1);
    EXPECT_EQ(encodeResidue(Alphabet::Protein, 'B'), -1);
    EXPECT_EQ(decodeResidue(Alphabet::Dna, 99), '?');
}

TEST(Sequence, ConstructionAndLetters)
{
    Sequence s("q", Alphabet::Dna, "ACGTacgt");
    EXPECT_EQ(s.size(), 8u);
    EXPECT_EQ(s.letters(), "ACGTACGT");
    EXPECT_EQ(s.name(), "q");
    EXPECT_EQ(s[0], 0u);
    EXPECT_EQ(s[3], 3u);
}

TEST(Sequence, WhitespaceIgnored)
{
    Sequence s("q", Alphabet::Protein, "ARN D\nCQE");
    EXPECT_EQ(s.letters(), "ARNDCQE");
}

TEST(Sequence, Subseq)
{
    Sequence s("q", Alphabet::Dna, "ACGTACGT");
    Sequence sub = s.subseq(2, 4, "mid");
    EXPECT_EQ(sub.letters(), "GTAC");
    EXPECT_EQ(sub.name(), "mid");
}

TEST(Fasta, ParseBasic)
{
    std::string text = ">seq1 description here\nACGT\nACG\n"
                       ">seq2\nTTTT\n";
    auto seqs = parseFasta(text, Alphabet::Dna);
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(seqs[0].name(), "seq1");
    EXPECT_EQ(seqs[0].letters(), "ACGTACG");
    EXPECT_EQ(seqs[1].letters(), "TTTT");
}

TEST(Fasta, RoundTrip)
{
    std::vector<Sequence> seqs = {
        Sequence("a", Alphabet::Protein, "ARNDCQEGHILKMFPSTWYV"),
        Sequence("b", Alphabet::Protein, "AAAA"),
    };
    auto back = parseFasta(formatFasta(seqs, 7), Alphabet::Protein);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].letters(), seqs[0].letters());
    EXPECT_EQ(back[1].letters(), seqs[1].letters());
}

TEST(Fasta, CrLfTolerated)
{
    auto seqs = parseFasta(">x\r\nAC\r\nGT\r\n", Alphabet::Dna);
    ASSERT_EQ(seqs.size(), 1u);
    EXPECT_EQ(seqs[0].letters(), "ACGT");
}

TEST(Scoring, Blosum62KnownValues)
{
    const SubstitutionMatrix &m = SubstitutionMatrix::blosum62();
    auto idx = [](char c) {
        return static_cast<unsigned>(
            encodeResidue(Alphabet::Protein, c));
    };
    EXPECT_EQ(m.score(idx('A'), idx('A')), 4);
    EXPECT_EQ(m.score(idx('W'), idx('W')), 11);
    EXPECT_EQ(m.score(idx('W'), idx('A')), -3);
    EXPECT_EQ(m.score(idx('E'), idx('D')), 2);
    EXPECT_EQ(m.score(idx('C'), idx('C')), 9);
}

TEST(Scoring, MatricesAreSymmetric)
{
    const SubstitutionMatrix &m = SubstitutionMatrix::blosum62();
    for (unsigned i = 0; i < 20; ++i) {
        for (unsigned j = 0; j < 20; ++j)
            EXPECT_EQ(m.score(i, j), m.score(j, i)) << i << "," << j;
    }
}

TEST(Scoring, DnaMatrix)
{
    SubstitutionMatrix dna = SubstitutionMatrix::dna(5, -4);
    EXPECT_EQ(dna.score(0, 0), 5);
    EXPECT_EQ(dna.score(0, 1), -4);
    EXPECT_EQ(dna.alphabet(), Alphabet::Dna);
}

TEST(Scoring, GapPenaltyCost)
{
    GapPenalty g{10, 1};
    EXPECT_EQ(g.cost(1), 11);
    EXPECT_EQ(g.cost(5), 15);
}

TEST(Generator, Deterministic)
{
    SequenceGenerator g1(42), g2(42);
    Sequence a = g1.random(100, "a");
    Sequence b = g2.random(100, "a");
    EXPECT_EQ(a.letters(), b.letters());
}

TEST(Generator, LengthAndAlphabet)
{
    SequenceGenerator g(7, Alphabet::Dna);
    Sequence s = g.random(250, "dna");
    EXPECT_EQ(s.size(), 250u);
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_LT(s[i], 4u);
}

TEST(Generator, MutationPreservesSimilarity)
{
    SequenceGenerator g(11);
    Sequence src = g.random(300, "src");
    MutationModel mild{0.05, 0.0, 0.0};
    Sequence mut = g.mutate(src, mild, "mut");
    ASSERT_EQ(mut.size(), src.size());
    size_t same = 0;
    for (size_t i = 0; i < src.size(); ++i)
        same += src[i] == mut[i];
    EXPECT_GT(same, 250u); // ~95% identity expected
}

TEST(Generator, IndelsChangeLength)
{
    SequenceGenerator g(13);
    Sequence src = g.random(500, "src");
    MutationModel indel{0.0, 0.10, 0.0};
    Sequence mut = g.mutate(src, indel, "mut");
    EXPECT_GT(mut.size(), src.size());
}

TEST(Generator, FamilyMembersAreRelated)
{
    SequenceGenerator g(17);
    auto fam = g.family(6, 120, MutationModel{0.1, 0.01, 0.01});
    ASSERT_EQ(fam.size(), 6u);
    for (const Sequence &s : fam)
        EXPECT_GT(s.size(), 100u);
}

TEST(Generator, DatabasePlantsHomologs)
{
    SequenceGenerator g(19);
    Sequence q = g.random(200, "q");
    auto db = g.database(q, 20, 100, 300, 5, MutationModel{});
    EXPECT_EQ(db.size(), 20u);
    size_t homs = 0;
    for (const Sequence &s : db)
        homs += s.name().find("_hom") != std::string::npos;
    EXPECT_EQ(homs, 5u);
}

TEST(Generator, CompositionIsNatural)
{
    // Leucine (L) should be ~2x more common than tryptophan (W).
    SequenceGenerator g(23);
    Sequence s = g.random(20000, "comp");
    size_t counts[20] = {0};
    for (size_t i = 0; i < s.size(); ++i)
        ++counts[s[i]];
    unsigned L = static_cast<unsigned>(
        encodeResidue(Alphabet::Protein, 'L'));
    unsigned W = static_cast<unsigned>(
        encodeResidue(Alphabet::Protein, 'W'));
    EXPECT_GT(counts[L], counts[W] * 3);
}

} // namespace
} // namespace bp5::bio
