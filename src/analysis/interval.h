/**
 * @file
 * The interval abstract domain of the binary-level abstract
 * interpreter (analysis/absint.h, DESIGN.md §4.9).  An Interval is a pair of
 * inclusive signed 64-bit bounds where INT64_MIN / INT64_MAX act as
 * -inf / +inf; the empty interval (bottom) is canonically {1, 0}.
 * All transfer arithmetic saturates through __int128 so wrap-around in
 * the analyzed program can only widen the result, never invent a
 * too-tight bound.
 */

#ifndef BIOPERF5_ANALYSIS_INTERVAL_H
#define BIOPERF5_ANALYSIS_INTERVAL_H

#include <algorithm>
#include <cstdint>
#include <string>

namespace bp5::analysis {

struct Interval
{
    static constexpr int64_t kNegInf = INT64_MIN;
    static constexpr int64_t kPosInf = INT64_MAX;

    int64_t lo = kNegInf;
    int64_t hi = kPosInf;

    static Interval top() { return {kNegInf, kPosInf}; }
    static Interval bottom() { return {1, 0}; }
    static Interval point(int64_t v) { return {v, v}; }
    static Interval range(int64_t lo, int64_t hi) { return {lo, hi}; }

    bool isBottom() const { return lo > hi; }
    bool isTop() const { return lo == kNegInf && hi == kPosInf; }
    bool isPoint() const { return lo == hi; }
    bool contains(int64_t v) const { return lo <= v && v <= hi; }

    bool operator==(const Interval &o) const
    {
        return (isBottom() && o.isBottom()) || (lo == o.lo && hi == o.hi);
    }

    /** Least upper bound (interval hull). */
    Interval
    join(const Interval &o) const
    {
        if (isBottom())
            return o;
        if (o.isBottom())
            return *this;
        return {std::min(lo, o.lo), std::max(hi, o.hi)};
    }

    Interval
    meet(const Interval &o) const
    {
        if (isBottom() || o.isBottom())
            return bottom();
        Interval r{std::max(lo, o.lo), std::min(hi, o.hi)};
        return r.isBottom() ? bottom() : r;
    }

    /**
     * Widening: any bound that moved since @p prev jumps straight to
     * infinity, guaranteeing fixpoint termination.
     */
    Interval
    widenedFrom(const Interval &prev) const
    {
        if (prev.isBottom())
            return *this;
        if (isBottom())
            return prev;
        return {lo < prev.lo ? kNegInf : prev.lo,
                hi > prev.hi ? kPosInf : prev.hi};
    }

    /** Saturate a 128-bit value into a representable bound. */
    static int64_t
    sat(__int128 v)
    {
        if (v <= static_cast<__int128>(kNegInf))
            return kNegInf;
        if (v >= static_cast<__int128>(kPosInf))
            return kPosInf;
        return static_cast<int64_t>(v);
    }

    /** Bound arithmetic that keeps infinities absorbing. */
    static int64_t
    addBound(int64_t a, int64_t b)
    {
        if (a == kNegInf || b == kNegInf)
            return kNegInf;
        if (a == kPosInf || b == kPosInf)
            return kPosInf;
        return sat(static_cast<__int128>(a) + b);
    }

    Interval
    add(const Interval &o) const
    {
        if (isBottom() || o.isBottom())
            return bottom();
        return {addBound(lo, o.lo), addBound(hi, o.hi)};
    }

    Interval
    addConst(int64_t c) const
    {
        if (isBottom())
            return bottom();
        auto shift = [&](int64_t b) {
            if (b == kNegInf || b == kPosInf)
                return b;
            return sat(static_cast<__int128>(b) + c);
        };
        return {shift(lo), shift(hi)};
    }

    Interval
    neg() const
    {
        if (isBottom())
            return bottom();
        auto flip = [](int64_t b) {
            if (b == kNegInf)
                return kPosInf;
            if (b == kPosInf)
                return kNegInf;
            return sat(-static_cast<__int128>(b));
        };
        return {flip(hi), flip(lo)};
    }

    Interval sub(const Interval &o) const { return add(o.neg()); }

    Interval
    mul(const Interval &o) const
    {
        if (isBottom() || o.isBottom())
            return bottom();
        // Any infinite bound makes the sign analysis too fiddly to be
        // worth it for this IR; give up to top.
        if (lo == kNegInf || hi == kPosInf || o.lo == kNegInf ||
            o.hi == kPosInf)
            return top();
        __int128 c[4] = {
            static_cast<__int128>(lo) * o.lo,
            static_cast<__int128>(lo) * o.hi,
            static_cast<__int128>(hi) * o.lo,
            static_cast<__int128>(hi) * o.hi,
        };
        __int128 mn = c[0], mx = c[0];
        for (__int128 v : c) {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
        }
        return {sat(mn), sat(mx)};
    }

    Interval
    maxWith(const Interval &o) const
    {
        if (isBottom() || o.isBottom())
            return bottom();
        return {std::max(lo, o.lo), std::max(hi, o.hi)};
    }

    Interval
    minWith(const Interval &o) const
    {
        if (isBottom() || o.isBottom())
            return bottom();
        return {std::min(lo, o.lo), std::min(hi, o.hi)};
    }

    /** Left shift by a constant amount in [0, 63]. */
    Interval
    shlConst(int64_t s) const
    {
        if (isBottom())
            return bottom();
        if (s < 0 || s > 63)
            return top();
        return mul(point(int64_t{1} << std::min<int64_t>(s, 62))
                       .mul(point(s == 63 ? 2 : 1)));
    }

    std::string
    str() const
    {
        if (isBottom())
            return "[]";
        std::string l = lo == kNegInf ? "-inf" : std::to_string(lo);
        std::string h = hi == kPosInf ? "+inf" : std::to_string(hi);
        return "[" + l + ", " + h + "]";
    }
};

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_INTERVAL_H
