#include "bio/align.h"

#include <algorithm>
#include <vector>

#include "support/logging.h"

namespace bp5::bio {

namespace {

constexpr int64_t kNegInf = INT32_MIN / 4;

void
checkInputs(const Sequence &a, const Sequence &b,
            const SubstitutionMatrix &m)
{
    BP5_ASSERT(a.alphabet() == m.alphabet() &&
               b.alphabet() == m.alphabet(),
               "sequence/matrix alphabet mismatch");
}

/** Dense (m+1)x(n+1) DP matrices for traceback variants. */
struct DpMatrices
{
    size_t cols;
    std::vector<int32_t> v, e, f;

    DpMatrices(size_t m, size_t n) : cols(n + 1)
    {
        size_t total = (m + 1) * (n + 1);
        v.assign(total, 0);
        e.assign(total, static_cast<int32_t>(kNegInf));
        f.assign(total, static_cast<int32_t>(kNegInf));
    }

    int32_t &V(size_t i, size_t j) { return v[i * cols + j]; }
    int32_t &E(size_t i, size_t j) { return e[i * cols + j]; }
    int32_t &F(size_t i, size_t j) { return f[i * cols + j]; }
};

/** Shared fill for traceback variants. @p local clamps at zero. */
void
fill(DpMatrices &dp, const Sequence &a, const Sequence &b,
     const SubstitutionMatrix &m, const GapPenalty &gap, bool local)
{
    size_t M = a.size(), N = b.size();
    int wg = gap.open, ws = gap.extend;

    dp.V(0, 0) = 0;
    for (size_t j = 1; j <= N; ++j) {
        int32_t edge = static_cast<int32_t>(-wg - static_cast<int>(j) * ws);
        dp.F(0, j) = local ? static_cast<int32_t>(-wg) : edge;
        dp.V(0, j) = local ? 0 : edge;
    }
    for (size_t i = 1; i <= M; ++i) {
        int32_t edge = static_cast<int32_t>(-wg - static_cast<int>(i) * ws);
        dp.E(i, 0) = local ? static_cast<int32_t>(-wg) : edge;
        dp.V(i, 0) = local ? 0 : edge;
    }
    // Row 0 E / column 0 F stay at -inf: never selected.

    for (size_t i = 1; i <= M; ++i) {
        for (size_t j = 1; j <= N; ++j) {
            int32_t e = static_cast<int32_t>(
                std::max<int64_t>(dp.E(i, j - 1),
                                  dp.V(i, j - 1) - wg) - ws);
            int32_t f = static_cast<int32_t>(
                std::max<int64_t>(dp.F(i - 1, j),
                                  dp.V(i - 1, j) - wg) - ws);
            int32_t g = dp.V(i - 1, j - 1) +
                        m.score(a[i - 1], b[j - 1]);
            int32_t v = std::max(std::max(e, f), g);
            if (local)
                v = std::max(v, 0);
            dp.E(i, j) = e;
            dp.F(i, j) = f;
            dp.V(i, j) = v;
        }
    }
}

Alignment
traceback(DpMatrices &dp, const Sequence &a, const Sequence &b,
          const SubstitutionMatrix &m, const GapPenalty &gap, bool local,
          size_t ei, size_t ej)
{
    Alignment out;
    out.endA = ei;
    out.endB = ej;
    out.score = dp.V(ei, ej);

    std::string ra, rb;
    size_t i = ei, j = ej;
    int ws = gap.extend;
    enum class St { V, E, F } st = St::V;

    while (true) {
        if (st == St::V) {
            if (local && dp.V(i, j) == 0)
                break;
            if (!local && i == 0 && j == 0)
                break;
            if (!local && i == 0) {
                // Leading gap along b.
                ra += '-';
                rb += decodeResidue(b.alphabet(), b[j - 1]);
                --j;
                continue;
            }
            if (!local && j == 0) {
                ra += decodeResidue(a.alphabet(), a[i - 1]);
                rb += '-';
                --i;
                continue;
            }
            int32_t v = dp.V(i, j);
            if (v == dp.V(i - 1, j - 1) + m.score(a[i - 1], b[j - 1])) {
                ra += decodeResidue(a.alphabet(), a[i - 1]);
                rb += decodeResidue(b.alphabet(), b[j - 1]);
                --i;
                --j;
            } else if (v == dp.E(i, j)) {
                st = St::E;
            } else if (v == dp.F(i, j)) {
                st = St::F;
            } else {
                panic("traceback: inconsistent V cell at (%zu, %zu)", i,
                      j);
            }
        } else if (st == St::E) {
            // Gap in a, consume b[j-1].
            ra += '-';
            rb += decodeResidue(b.alphabet(), b[j - 1]);
            int32_t e = dp.E(i, j);
            --j;
            if (j > 0 && e == dp.E(i, j) - ws) {
                // stay in E
            } else {
                st = St::V;
            }
        } else { // St::F
            ra += decodeResidue(a.alphabet(), a[i - 1]);
            rb += '-';
            int32_t f = dp.F(i, j);
            --i;
            if (i > 0 && f == dp.F(i, j) - ws) {
                // stay in F
            } else {
                st = St::V;
            }
        }
    }

    out.startA = i;
    out.startB = j;
    std::reverse(ra.begin(), ra.end());
    std::reverse(rb.begin(), rb.end());
    out.alignedA = std::move(ra);
    out.alignedB = std::move(rb);
    return out;
}

} // namespace

double
Alignment::identity() const
{
    if (alignedA.empty())
        return 0.0;
    return static_cast<double>(matches()) /
           static_cast<double>(alignedA.size());
}

size_t
Alignment::matches() const
{
    size_t n = 0;
    for (size_t i = 0; i < alignedA.size(); ++i) {
        if (alignedA[i] == alignedB[i] && alignedA[i] != '-')
            ++n;
    }
    return n;
}

int64_t
nwScore(const Sequence &a, const Sequence &b, const SubstitutionMatrix &m,
        const GapPenalty &gap)
{
    checkInputs(a, b, m);
    size_t M = a.size(), N = b.size();
    int wg = gap.open, ws = gap.extend;

    std::vector<int64_t> V(N + 1), F(N + 1);
    V[0] = 0;
    for (size_t j = 1; j <= N; ++j) {
        V[j] = -wg - static_cast<int64_t>(j) * ws;
        F[j] = V[j];
    }
    for (size_t i = 1; i <= M; ++i) {
        int64_t vdiag = V[0];
        V[0] = -wg - static_cast<int64_t>(i) * ws;
        int64_t e = V[0];
        for (size_t j = 1; j <= N; ++j) {
            e = std::max(e, V[j - 1] - wg) - ws;
            F[j] = std::max(F[j], V[j] - wg) - ws;
            int64_t g = vdiag + m.score(a[i - 1], b[j - 1]);
            vdiag = V[j];
            V[j] = std::max(std::max(e, F[j]), g);
        }
    }
    return V[N];
}

int64_t
swScore(const Sequence &a, const Sequence &b, const SubstitutionMatrix &m,
        const GapPenalty &gap)
{
    checkInputs(a, b, m);
    size_t M = a.size(), N = b.size();
    int wg = gap.open, ws = gap.extend;

    std::vector<int64_t> V(N + 1, 0), F(N + 1, -wg);
    int64_t best = 0;
    for (size_t i = 1; i <= M; ++i) {
        int64_t vdiag = V[0];
        int64_t e = -wg;
        for (size_t j = 1; j <= N; ++j) {
            e = std::max(e, V[j - 1] - wg) - ws;
            F[j] = std::max(F[j], V[j] - wg) - ws;
            int64_t g = vdiag + m.score(a[i - 1], b[j - 1]);
            vdiag = V[j];
            int64_t v = std::max(std::max(std::max(e, F[j]), g),
                                 int64_t(0));
            V[j] = v;
            best = std::max(best, v);
        }
    }
    return best;
}

Alignment
nwAlign(const Sequence &a, const Sequence &b, const SubstitutionMatrix &m,
        const GapPenalty &gap)
{
    checkInputs(a, b, m);
    DpMatrices dp(a.size(), b.size());
    fill(dp, a, b, m, gap, false);
    return traceback(dp, a, b, m, gap, false, a.size(), b.size());
}

Alignment
swAlign(const Sequence &a, const Sequence &b, const SubstitutionMatrix &m,
        const GapPenalty &gap)
{
    checkInputs(a, b, m);
    DpMatrices dp(a.size(), b.size());
    fill(dp, a, b, m, gap, true);
    size_t bi = 0, bj = 0;
    int32_t best = 0;
    for (size_t i = 0; i <= a.size(); ++i) {
        for (size_t j = 0; j <= b.size(); ++j) {
            if (dp.V(i, j) > best) {
                best = dp.V(i, j);
                bi = i;
                bj = j;
            }
        }
    }
    return traceback(dp, a, b, m, gap, true, bi, bj);
}

} // namespace bp5::bio
