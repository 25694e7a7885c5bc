/**
 * @file
 * Deterministic pseudo-random number generation for workload input
 * synthesis.  All experiments must be reproducible bit-for-bit, so the
 * library never uses std::random_device or global state.
 */

#ifndef BIOPERF5_SUPPORT_RANDOM_H
#define BIOPERF5_SUPPORT_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bp5 {

/**
 * xoshiro256** generator seeded through SplitMix64.  Fast, good quality,
 * and fully deterministic from the 64-bit seed.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed via SplitMix64. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound) with rejection to avoid bias. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Draw an index according to non-negative weights.
     * @param weights per-index weights; sum must be positive.
     */
    size_t weighted(const std::vector<double> &weights);

  private:
    uint64_t s_[4];
};

} // namespace bp5

#endif // BIOPERF5_SUPPORT_RANDOM_H
