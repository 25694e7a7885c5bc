#include "support/random.h"

#include "support/logging.h"

namespace bp5 {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    uint64_t result = rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::below(uint64_t bound)
{
    BP5_ASSERT(bound > 0, "Rng::below(0)");
    // Rejection sampling over the largest multiple of bound.
    uint64_t limit = ~0ULL - (~0ULL % bound);
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    BP5_ASSERT(lo <= hi, "Rng::range lo > hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(span == 0 ? next() : below(span));
}

double
Rng::uniform()
{
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
Rng::weighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        BP5_ASSERT(w >= 0.0, "negative weight");
        total += w;
    }
    BP5_ASSERT(total > 0.0, "weights sum to zero");
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

} // namespace bp5
