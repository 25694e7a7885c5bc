#include "bio/clustal.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/logging.h"

namespace bp5::bio {

void
DistanceMatrix::set(size_t i, size_t j, double v)
{
    BP5_ASSERT(i < n_ && j < n_, "distance index out of range");
    d_[i * n_ + j] = v;
    d_[j * n_ + i] = v;
}

DistanceMatrix
pairwiseDistances(const std::vector<Sequence> &seqs,
                  const SubstitutionMatrix &m, const GapPenalty &gap)
{
    size_t n = seqs.size();
    DistanceMatrix d(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            Alignment al = nwAlign(seqs[i], seqs[j], m, gap);
            double id = al.identity();
            d.set(i, j, 1.0 - id);
        }
    }
    return d;
}

std::string
GuideTree::newick(const std::vector<std::string> &names) const
{
    BP5_ASSERT(root >= 0, "empty tree");
    std::ostringstream os;
    auto rec = [&](auto &&self, int n) -> void {
        const Node &nd = nodes[size_t(n)];
        if (nd.leaf >= 0) {
            os << names[size_t(nd.leaf)];
            return;
        }
        os << "(";
        self(self, nd.left);
        os << ",";
        self(self, nd.right);
        os << ")";
    };
    rec(rec, root);
    os << ";";
    return os.str();
}

GuideTree
upgmaTree(const DistanceMatrix &d)
{
    size_t n = d.size();
    BP5_ASSERT(n >= 1, "empty distance matrix");
    GuideTree t;

    // Active cluster list: node index + member count.
    struct Cluster
    {
        int node;
        size_t count;
    };
    std::vector<Cluster> act;
    std::vector<std::vector<double>> dist(n, std::vector<double>(n));
    for (size_t i = 0; i < n; ++i) {
        GuideTree::Node leaf;
        leaf.leaf = static_cast<int>(i);
        t.nodes.push_back(leaf);
        act.push_back({static_cast<int>(i), 1});
        for (size_t j = 0; j < n; ++j)
            dist[i][j] = d.at(i, j);
    }
    if (n == 1) {
        t.root = 0;
        return t;
    }

    // dist is indexed by position in `act`.
    while (act.size() > 1) {
        size_t bi = 0, bj = 1;
        double best = dist[0][1];
        for (size_t i = 0; i < act.size(); ++i) {
            for (size_t j = i + 1; j < act.size(); ++j) {
                if (dist[i][j] < best) {
                    best = dist[i][j];
                    bi = i;
                    bj = j;
                }
            }
        }
        GuideTree::Node join;
        join.left = act[bi].node;
        join.right = act[bj].node;
        join.height = best / 2.0;
        int nn = static_cast<int>(t.nodes.size());
        t.nodes.push_back(join);

        size_t ci = act[bi].count, cj = act[bj].count;
        // New row: weighted average of the two merged rows.
        std::vector<double> row(act.size());
        for (size_t k = 0; k < act.size(); ++k) {
            row[k] = (dist[bi][k] * double(ci) + dist[bj][k] * double(cj)) /
                     double(ci + cj);
        }
        // Replace bi with the merged cluster; remove bj.
        act[bi] = {nn, ci + cj};
        for (size_t k = 0; k < act.size(); ++k) {
            dist[bi][k] = row[k];
            dist[k][bi] = row[k];
        }
        dist[bi][bi] = 0.0;
        act.erase(act.begin() + static_cast<long>(bj));
        for (auto &r : dist)
            r.erase(r.begin() + static_cast<long>(bj));
        dist.erase(dist.begin() + static_cast<long>(bj));
    }
    t.root = act[0].node;
    return t;
}

GuideTree
njTree(const DistanceMatrix &d)
{
    size_t n = d.size();
    BP5_ASSERT(n >= 1, "empty distance matrix");
    GuideTree t;
    std::vector<int> act;
    std::vector<std::vector<double>> dist(n, std::vector<double>(n));
    for (size_t i = 0; i < n; ++i) {
        GuideTree::Node leaf;
        leaf.leaf = static_cast<int>(i);
        t.nodes.push_back(leaf);
        act.push_back(static_cast<int>(i));
        for (size_t j = 0; j < n; ++j)
            dist[i][j] = d.at(i, j);
    }
    if (n == 1) {
        t.root = 0;
        return t;
    }

    while (act.size() > 2) {
        size_t r = act.size();
        std::vector<double> total(r, 0.0);
        for (size_t i = 0; i < r; ++i) {
            for (size_t j = 0; j < r; ++j)
                total[i] += dist[i][j];
        }
        // Minimize the Q criterion.
        size_t bi = 0, bj = 1;
        double bq = 1e300;
        for (size_t i = 0; i < r; ++i) {
            for (size_t j = i + 1; j < r; ++j) {
                double q = double(r - 2) * dist[i][j] - total[i] -
                           total[j];
                if (q < bq) {
                    bq = q;
                    bi = i;
                    bj = j;
                }
            }
        }
        GuideTree::Node join;
        join.left = act[bi];
        join.right = act[bj];
        join.height = dist[bi][bj] / 2.0;
        int nn = static_cast<int>(t.nodes.size());
        t.nodes.push_back(join);

        std::vector<double> row(r);
        for (size_t k = 0; k < r; ++k) {
            row[k] = (dist[bi][k] + dist[bj][k] - dist[bi][bj]) / 2.0;
        }
        act[bi] = nn;
        for (size_t k = 0; k < r; ++k) {
            dist[bi][k] = row[k];
            dist[k][bi] = row[k];
        }
        dist[bi][bi] = 0.0;
        act.erase(act.begin() + static_cast<long>(bj));
        for (auto &rr : dist)
            rr.erase(rr.begin() + static_cast<long>(bj));
        dist.erase(dist.begin() + static_cast<long>(bj));
    }
    GuideTree::Node join;
    join.left = act[0];
    join.right = act[1];
    join.height = dist[0][1] / 2.0;
    t.nodes.push_back(join);
    t.root = static_cast<int>(t.nodes.size()) - 1;
    return t;
}

Profile::Profile(const Sequence &seq, size_t member_index)
{
    alphabet_ = seq.alphabet();
    rows_.push_back(seq.letters());
    members_.push_back(member_index);
}

namespace {

/** Per-column residue frequencies of a profile (gaps excluded). */
std::vector<std::array<double, 20>>
columnFrequencies(const std::vector<std::string> &rows, Alphabet alpha)
{
    size_t cols = rows.empty() ? 0 : rows[0].size();
    std::vector<std::array<double, 20>> f(cols);
    for (auto &col : f)
        col.fill(0.0);
    for (const std::string &r : rows) {
        for (size_t c = 0; c < cols; ++c) {
            if (r[c] == '-')
                continue;
            int code = encodeResidue(alpha, r[c]);
            if (code >= 0)
                f[c][static_cast<size_t>(code)] += 1.0;
        }
    }
    double inv = rows.empty() ? 0.0 : 1.0 / double(rows.size());
    for (auto &col : f) {
        for (double &v : col)
            v *= inv;
    }
    return f;
}

} // namespace

Profile
Profile::align(const Profile &a, const Profile &b,
               const SubstitutionMatrix &m, const GapPenalty &gap)
{
    size_t M = a.columns(), N = b.columns();
    double wg = gap.open, ws = gap.extend;
    size_t cols = N + 1;
    std::vector<double> V((M + 1) * cols), E((M + 1) * cols),
        F((M + 1) * cols);
    std::vector<uint8_t> back((M + 1) * cols, 0); // 0 diag, 1 E, 2 F

    // Clustalw-style prfscore tables: precompute, per column of b, the
    // expected score against each residue, so a DP cell costs O(K)
    // instead of O(K^2) or O(members^2).
    unsigned K = alphabetSize(a.alphabet_);
    auto fa = columnFrequencies(a.rows_, a.alphabet_);
    auto fb = columnFrequencies(b.rows_, b.alphabet_);
    std::vector<std::array<double, 20>> tb(N);
    for (size_t cb = 0; cb < N; ++cb) {
        for (unsigned x = 0; x < K; ++x) {
            double s = 0.0;
            for (unsigned y = 0; y < K; ++y)
                s += fb[cb][y] * m.score(x, y);
            tb[cb][x] = s;
        }
    }
    auto cellScore = [&](size_t ca, size_t cb) {
        double s = 0.0;
        for (unsigned x = 0; x < K; ++x)
            s += fa[ca][x] * tb[cb][x];
        return s;
    };

    auto at = [cols](std::vector<double> &v, size_t i,
                     size_t j) -> double & { return v[i * cols + j]; };

    const double NEG = -1e15;
    at(V, 0, 0) = 0;
    for (size_t j = 1; j <= N; ++j) {
        at(V, 0, j) = -wg - double(j) * ws;
        at(F, 0, j) = at(V, 0, j);
        at(E, 0, j) = NEG;
    }
    for (size_t i = 1; i <= M; ++i) {
        at(V, i, 0) = -wg - double(i) * ws;
        at(E, i, 0) = at(V, i, 0);
        at(F, i, 0) = NEG;
    }
    for (size_t i = 1; i <= M; ++i) {
        for (size_t j = 1; j <= N; ++j) {
            double e = std::max(at(E, i, j - 1),
                                at(V, i, j - 1) - wg) - ws;
            double f = std::max(at(F, i - 1, j),
                                at(V, i - 1, j) - wg) - ws;
            double g = at(V, i - 1, j - 1) + cellScore(i - 1, j - 1);
            at(E, i, j) = e;
            at(F, i, j) = f;
            double v = std::max(std::max(e, f), g);
            at(V, i, j) = v;
            back[i * cols + j] = v == g ? 0 : (v == e ? 1 : 2);
        }
    }

    // Traceback into a column script.
    std::vector<int> script; // 0 both, 1 gap in a, 2 gap in b
    size_t i = M, j = N;
    while (i > 0 || j > 0) {
        if (i == 0) {
            script.push_back(1);
            --j;
        } else if (j == 0) {
            script.push_back(2);
            --i;
        } else if (back[i * cols + j] == 0) {
            script.push_back(0);
            --i;
            --j;
        } else if (back[i * cols + j] == 1) {
            script.push_back(1);
            --j;
        } else {
            script.push_back(2);
            --i;
        }
    }
    std::reverse(script.begin(), script.end());

    Profile out;
    out.alphabet_ = a.alphabet_;
    out.rows_.resize(a.members() + b.members());
    out.members_ = a.members_;
    out.members_.insert(out.members_.end(), b.members_.begin(),
                        b.members_.end());
    size_t pa = 0, pb = 0;
    for (int op : script) {
        for (size_t r = 0; r < a.members(); ++r) {
            out.rows_[r] += (op == 1) ? '-' : a.rows_[r][pa];
        }
        for (size_t r = 0; r < b.members(); ++r) {
            out.rows_[a.members() + r] += (op == 2) ? '-'
                                                    : b.rows_[r][pb];
        }
        if (op != 1)
            ++pa;
        if (op != 2)
            ++pb;
    }
    return out;
}

int64_t
Msa::sumOfPairsScore(const SubstitutionMatrix &m,
                     const GapPenalty &gap) const
{
    if (rows.empty())
        return 0;
    int64_t total = 0;
    size_t len = rows[0].size();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = i + 1; j < rows.size(); ++j) {
            bool inGapA = false, inGapB = false;
            for (size_t c = 0; c < len; ++c) {
                char x = rows[i][c], y = rows[j][c];
                if (x == '-' && y == '-')
                    continue;
                if (x == '-') {
                    total -= inGapA ? gap.extend : gap.open + gap.extend;
                    inGapA = true;
                    inGapB = false;
                    continue;
                }
                if (y == '-') {
                    total -= inGapB ? gap.extend : gap.open + gap.extend;
                    inGapB = true;
                    inGapA = false;
                    continue;
                }
                inGapA = inGapB = false;
                int cx = encodeResidue(Alphabet::Protein, x);
                int cy = encodeResidue(Alphabet::Protein, y);
                if (cx >= 0 && cy >= 0) {
                    total += m.score(static_cast<unsigned>(cx),
                                     static_cast<unsigned>(cy));
                }
            }
        }
    }
    return total;
}

Msa
progressiveAlign(const std::vector<Sequence> &seqs,
                 const SubstitutionMatrix &m, const GapPenalty &gap,
                 TreeMethod method)
{
    BP5_ASSERT(!seqs.empty(), "no sequences to align");
    Msa out;
    out.distances = pairwiseDistances(seqs, m, gap);
    out.tree = method == TreeMethod::Upgma ? upgmaTree(out.distances)
                                           : njTree(out.distances);
    for (const Sequence &s : seqs)
        out.names.push_back(s.name());

    // Post-order profile construction.
    auto build = [&](auto &&self, int node) -> Profile {
        const GuideTree::Node &nd = out.tree.nodes[size_t(node)];
        if (nd.leaf >= 0)
            return Profile(seqs[size_t(nd.leaf)], size_t(nd.leaf));
        Profile l = self(self, nd.left);
        Profile r = self(self, nd.right);
        return Profile::align(l, r, m, gap);
    };
    Profile final_p = build(build, out.tree.root);

    out.rows.assign(seqs.size(), "");
    for (size_t r = 0; r < final_p.members(); ++r)
        out.rows[final_p.memberIndex()[r]] = final_p.rows()[r];
    return out;
}

} // namespace bp5::bio
