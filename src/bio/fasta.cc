#include "bio/fasta.h"

#include <sstream>

#include "support/logging.h"

namespace bp5::bio {

std::vector<Sequence>
parseFasta(const std::string &text, Alphabet alphabet)
{
    std::vector<Sequence> out;
    std::istringstream in(text);
    std::string line;
    std::string name;
    std::string residues;
    bool have = false;

    auto flush = [&]() {
        if (have)
            out.emplace_back(name, alphabet, residues);
        residues.clear();
    };

    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            have = true;
            // Name is the first token of the header.
            size_t sp = line.find_first_of(" \t", 1);
            name = line.substr(1, sp == std::string::npos
                                      ? std::string::npos
                                      : sp - 1);
            if (name.empty())
                name = "unnamed";
        } else {
            if (!have)
                fatal("FASTA: residue data before any '>' header");
            residues += line;
        }
    }
    flush();
    return out;
}

std::string
formatFasta(const std::vector<Sequence> &seqs, unsigned width)
{
    BP5_ASSERT(width > 0, "zero FASTA line width");
    std::string out;
    for (const Sequence &s : seqs) {
        out += ">" + s.name() + "\n";
        std::string letters = s.letters();
        for (size_t i = 0; i < letters.size(); i += width) {
            out += letters.substr(i, width);
            out += "\n";
        }
    }
    return out;
}

} // namespace bp5::bio
