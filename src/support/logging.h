/**
 * @file
 * Error-reporting and status-message helpers, modelled on gem5's
 * base/logging.hh conventions: panic() for internal invariant violations,
 * fatal() for user errors, warn()/inform() for status.
 */

#ifndef BIOPERF5_SUPPORT_LOGGING_H
#define BIOPERF5_SUPPORT_LOGGING_H

#include <cstdarg>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

namespace bp5 {

/**
 * Print a formatted message tagged "panic:" to stderr and abort().
 * Call when an internal invariant is violated (a simulator bug),
 * regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Print a formatted message tagged "fatal:" to stderr and exit(1).
 * Call when the simulation cannot continue due to a user-caused
 * condition (bad configuration, malformed input file, ...).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a non-fatal "warn:" message to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list args);

/** Parse all of @p text as an unsigned integer no larger than @p max
 *  (see parseNumber). */
bool parseUnsigned(const std::string &text, uint64_t max, int base,
                   uint64_t &out);

/** Parse all of @p text as a finite, non-negative double. */
bool parseNonNegative(const std::string &text, double &out);

/**
 * Strict parse of a numeric command-line value into @p out.  The whole
 * of @p text must be one number that fits T: an empty value, a sign,
 * leading blanks, trailing characters, overflow and a value above T's
 * maximum are rejected, and @p out is left unchanged.  Integers are
 * read in @p base; base 0 also accepts the C prefixes `0x` and `0`.
 * @return true when @p out was set.
 */
template <typename T>
bool
parseNumber(const std::string &text, T &out, int base = 10)
{
    if constexpr (std::is_floating_point_v<T>) {
        double v;
        if (!parseNonNegative(text, v))
            return false;
        out = static_cast<T>(v);
    } else {
        static_assert(std::is_unsigned_v<T>, "unsigned or floating point");
        uint64_t v;
        if (!parseUnsigned(text, std::numeric_limits<T>::max(), base, v))
            return false;
        out = static_cast<T>(v);
    }
    return true;
}

} // namespace bp5

/**
 * Assert that always fires (also in release builds); reports the failing
 * expression and location through panic().
 */
#define BP5_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::bp5::panic("assertion '%s' failed at %s:%d %s", #cond,       \
                         __FILE__, __LINE__,                               \
                         ::bp5::strprintf("" __VA_ARGS__).c_str());        \
        }                                                                  \
    } while (0)

#endif // BIOPERF5_SUPPORT_LOGGING_H
