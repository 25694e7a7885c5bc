/**
 * @file
 * Two-bit saturating counters held one per byte, the cells of the
 * direction predictors' tables.  A table of them is a plain byte
 * vector: a lookup loads one byte and a reset is one fill in place.
 *
 * An update is a lookup in a 2x4 table of next states rather than an
 * if-chain on the outcome and the counter: the simulator trains a
 * counter on every conditional branch of the guest, and those outcomes
 * are exactly the data-dependent, hard-to-predict stream the paper
 * studies, so branching on them would make the host mispredict what
 * the guest mispredicts.  It is the host-side analogue of the paper's
 * if-conversion (DESIGN.md §4.8).
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

/** Next state of a counter in 0..kMax: kNext[up][c]. */
inline constexpr uint8_t kNext[2][kMax + 1] = {
    {0, 0, 1, 2}, // toward not-taken, saturating at 0
    {1, 2, 3, 3}, // toward taken, saturating at kMax
};

/** @p c moved toward taken (true) / not-taken (false), saturating. */
constexpr uint8_t
next(uint8_t c, bool up)
{
    return kNext[up][c];
}

/** Move @p c toward taken (true) / not-taken (false), saturating. */
inline void
update(uint8_t &c, bool up)
{
    c = next(c, up);
}

} // namespace bp5::counter2

#endif // BIOPERF5_SUPPORT_SATURATING_COUNTER_H
