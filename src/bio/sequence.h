/**
 * @file
 * Biological sequences: alphabets (DNA / protein), residue encoding,
 * and the Sequence value type used throughout the bio library.
 * Residues are stored as small integer codes (indices into the
 * alphabet and into substitution matrices).
 */

#ifndef BIOPERF5_BIO_SEQUENCE_H
#define BIOPERF5_BIO_SEQUENCE_H

#include <cstdint>
#include <string>
#include <vector>

namespace bp5::bio {

/** Supported residue alphabets. */
enum class Alphabet : uint8_t
{
    Dna,     ///< ACGT
    Protein, ///< the 20 standard amino acids (BLOSUM matrix order)
};

/** Number of residue codes in @p a. */
unsigned alphabetSize(Alphabet a);

/** Residue letters of @p a in code order. */
const char *alphabetLetters(Alphabet a);

/**
 * Encode a residue letter (case-insensitive).
 * @return the residue code, or -1 for characters outside the alphabet.
 */
int encodeResidue(Alphabet a, char c);

/** Decode a residue code back to its letter ('?' if out of range). */
char decodeResidue(Alphabet a, unsigned code);

/** A named, encoded biological sequence. */
class Sequence
{
  public:
    Sequence() = default;

    /**
     * Encode @p letters.  Characters outside the alphabet are a fatal
     * error (user input problem).
     */
    Sequence(std::string name, Alphabet alphabet,
             const std::string &letters);

    /** Wrap already-encoded residues. */
    Sequence(std::string name, Alphabet alphabet,
             std::vector<uint8_t> codes);

    const std::string &name() const { return name_; }
    Alphabet alphabet() const { return alphabet_; }
    size_t size() const { return codes_.size(); }

    uint8_t operator[](size_t i) const { return codes_[i]; }
    const std::vector<uint8_t> &codes() const { return codes_; }

    /** Decode back to a letter string. */
    std::string letters() const;

    /** Sub-sequence [pos, pos+len). */
    Sequence subseq(size_t pos, size_t len,
                    const std::string &name = "") const;

  private:
    std::string name_;
    Alphabet alphabet_ = Alphabet::Protein;
    std::vector<uint8_t> codes_;
};

} // namespace bp5::bio

#endif // BIOPERF5_BIO_SEQUENCE_H
