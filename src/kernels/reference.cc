/**
 * @file
 * Native reference implementations the simulated kernels must match
 * bit-for-bit.  ForwardPass and Dropgsw delegate to the bio library;
 * P7Viterbi and SemiGAlign re-state the kernels' exact arithmetic
 * (plain 64-bit adds, kNeg = -1e8 as minus infinity).
 */

#include "kernels/kernels.h"

#include <algorithm>
#include <vector>

#include "support/logging.h"

namespace bp5::kernels {

namespace {

constexpr int64_t kNeg = -100000000;

} // namespace

int64_t
refForwardPass(const AlignProblem &p)
{
    return bio::nwScore(*p.a, *p.b, *p.matrix, p.gap);
}

int64_t
refDropgsw(const AlignProblem &p)
{
    return bio::swScore(*p.a, *p.b, *p.matrix, p.gap);
}

int64_t
refViterbi(const ViterbiProblem &p)
{
    const bio::Plan7Model &m = *p.model;
    const bio::Sequence &seq = *p.seq;
    unsigned M = m.length();
    unsigned K = bio::alphabetSize(m.alphabet());

    std::vector<int64_t> pm(M + 1, kNeg), pi(M + 1, kNeg),
        pd(M + 1, kNeg);
    std::vector<int64_t> cm(M + 1), ci(M + 1), cd(M + 1);
    int64_t best = kNeg;

    for (size_t i = 0; i < seq.size(); ++i) {
        unsigned x = seq[i];
        cm[0] = ci[0] = cd[0] = kNeg;
        for (unsigned k = 1; k <= M; ++k) {
            int64_t mm = pm[k - 1] + m.tMM(k - 1);
            mm = std::max(mm, pi[k - 1] + m.tIM(k - 1));
            mm = std::max(mm, pd[k - 1] + m.tDM(k - 1));
            mm = std::max<int64_t>(mm, m.tBM(k));
            mm += m.matchScore(k, x);
            cm[k] = mm;

            ci[k] = std::max(pm[k] + m.tMI(k), pi[k] + m.tII(k)) +
                    m.insertScore(k, x);

            cd[k] = std::max(cm[k - 1] + m.tMD(k - 1),
                             cd[k - 1] + m.tDD(k - 1));

            best = std::max(best, mm + m.tME(k));
        }
        std::swap(pm, cm);
        std::swap(pi, ci);
        std::swap(pd, cd);
    }
    (void)K;
    return best;
}

int64_t
refSemiGAlign(const ExtendProblem &p)
{
    const bio::Sequence &a = *p.a;
    const bio::Sequence &b = *p.b;
    BP5_ASSERT(p.aFrom <= a.size() && p.bFrom <= b.size(),
               "seed out of range");
    int64_t alen = static_cast<int64_t>(a.size() - p.aFrom);
    int64_t blen = static_cast<int64_t>(b.size() - p.bFrom);
    int64_t wg = p.gap.open, ws = p.gap.extend, xd = p.xdrop;

    std::vector<int64_t> V(static_cast<size_t>(blen) + 1);
    std::vector<int64_t> F(static_cast<size_t>(blen) + 1, kNeg);
    int64_t best = 0;
    V[0] = 0;
    int64_t jHi = 0;
    for (int64_t j = 1; j <= blen; ++j) {
        int64_t edge = -wg - j * ws;
        if (edge < -xd)
            edge = kNeg;
        else
            jHi = j;
        V[static_cast<size_t>(j)] = edge;
    }

    int64_t jLo = 1;
    for (int64_t i = 1; i <= alen; ++i) {
        int64_t rowTop = std::min(jHi + 1, blen);
        if (jLo > rowTop)
            break;
        unsigned ai = a[p.aFrom + static_cast<size_t>(i) - 1];
        int64_t e = kNeg;
        int64_t newLo = -1, newHi = -1;
        int64_t vdiag = V[static_cast<size_t>(jLo - 1)];

        // Cell (i, 0).
        int64_t v0 = -wg - i * ws;
        if (v0 < best - xd)
            v0 = kNeg;
        V[0] = v0;
        if (jLo == 1 && v0 > kNeg) {
            newLo = 0;
            newHi = 0;
        }

        int64_t vprev = V[static_cast<size_t>(jLo - 1)];
        for (int64_t j = jLo; j <= rowTop; ++j) {
            size_t ju = static_cast<size_t>(j);
            unsigned bj = b[p.bFrom + ju - 1];
            int64_t w = p.matrix->score(ai, bj);
            e = std::max(e - ws, vprev - wg - ws);
            int64_t f = std::max(F[ju] - ws, V[ju] - wg - ws);
            F[ju] = f;
            int64_t g = vdiag + w;
            vdiag = V[ju];
            int64_t v = std::max(std::max(e, f), g);
            if (v < best - xd)
                v = kNeg;
            V[ju] = v;
            vprev = v;
            if (v > kNeg) {
                if (newLo < 0)
                    newLo = j;
                newHi = j;
                if (v > best)
                    best = v;
            }
        }
        if (newLo < 0)
            break;
        jLo = std::max<int64_t>(newLo, 1);
        jHi = newHi;
    }
    return best;
}

int64_t
refSankoff(const SankoffProblem &p)
{
    return bio::sankoffSite(*p.tree, p.states, *p.cost);
}

} // namespace bp5::kernels
