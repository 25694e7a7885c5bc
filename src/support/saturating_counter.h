/**
 * @file
 * Two-bit saturating counters held one per byte, the cells of the
 * direction predictors' tables.  A table of them is a plain byte
 * vector: a lookup loads one byte and a reset is one fill in place.
 */

#ifndef BIOPERF5_SUPPORT_SATURATING_COUNTER_H
#define BIOPERF5_SUPPORT_SATURATING_COUNTER_H

#include <cstdint>

namespace bp5::counter2 {

constexpr uint8_t kMax = 3;
/** The predictors' reset value: predicts not-taken, one outcome flips it. */
constexpr uint8_t kWeaklyNotTaken = 1;

/** MSB set: predict taken / high confidence. */
constexpr bool
high(uint8_t c)
{
    return c > kMax / 2;
}

/** Move toward taken (true) / not-taken (false), saturating. */
inline void
update(uint8_t &c, bool up)
{
    if (up) {
        if (c < kMax)
            ++c;
    } else if (c > 0) {
        --c;
    }
}

} // namespace bp5::counter2

#endif // BIOPERF5_SUPPORT_SATURATING_COUNTER_H
