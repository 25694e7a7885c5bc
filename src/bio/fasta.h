/**
 * @file
 * FASTA parsing and formatting for Sequence collections.
 */

#ifndef BIOPERF5_BIO_FASTA_H
#define BIOPERF5_BIO_FASTA_H

#include <string>
#include <vector>

#include "bio/sequence.h"

namespace bp5::bio {

/**
 * Parse FASTA text into sequences.
 * @param text FASTA content ('>' headers, wrapped residue lines)
 * @param alphabet residue alphabet of the records
 * Malformed records (residues outside the alphabet) are fatal.
 */
std::vector<Sequence> parseFasta(const std::string &text,
                                 Alphabet alphabet);

/** Format sequences as FASTA text with @p width residues per line. */
std::string formatFasta(const std::vector<Sequence> &seqs,
                        unsigned width = 60);

} // namespace bp5::bio

#endif // BIOPERF5_BIO_FASTA_H
