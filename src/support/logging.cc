#include "support/logging.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace bp5 {

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

bool
parseUnsigned(const std::string &text, uint64_t max, int base,
              uint64_t &out)
{
    // strtoull would skip blanks and accept (and negate) a sign.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (errno != 0 || end != text.c_str() + text.size() || v > max)
        return false;
    out = v;
    return true;
}

bool
parseNonNegative(const std::string &text, double &out)
{
    unsigned char c0 = text.empty() ? 0 : static_cast<unsigned char>(text[0]);
    if (!std::isdigit(c0) && c0 != '.')
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

namespace {

void
emit(const char *tag, const char *fmt, va_list args)
{
    std::string msg = vstrprintf(fmt, args);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("info", fmt, args);
    va_end(args);
}

} // namespace bp5
