#include "support/result.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace bp5::support {

namespace {

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
              c == '-' || c == '+' || c == '%' || c == 'x' || c == 'e'))
            return false;
    }
    return true;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

ResultRow &
ResultRow::add(const std::string &key, std::string text, std::string json)
{
    for (Cell &c : cells_) {
        if (c.key == key) {
            c.text = std::move(text);
            c.json = std::move(json);
            return *this;
        }
    }
    cells_.push_back({key, std::move(text), std::move(json)});
    return *this;
}

ResultRow &
ResultRow::set(const std::string &key, const std::string &value)
{
    return add(key, value, jsonEscape(value));
}

ResultRow &
ResultRow::set(const std::string &key, const char *value)
{
    return set(key, std::string(value));
}

ResultRow &
ResultRow::set(const std::string &key, double value, int precision)
{
    std::string t = fmtDouble(value, precision);
    return add(key, t, t);
}

ResultRow &
ResultRow::set(const std::string &key, uint64_t value)
{
    std::string t = std::to_string(value);
    return add(key, t, t);
}

ResultRow &
ResultRow::set(const std::string &key, int64_t value)
{
    std::string t = std::to_string(value);
    return add(key, t, t);
}

ResultRow &
ResultRow::set(const std::string &key, int value)
{
    return set(key, static_cast<int64_t>(value));
}

ResultRow &
ResultRow::set(const std::string &key, unsigned value)
{
    return set(key, static_cast<uint64_t>(value));
}

ResultRow &
ResultRow::setPct(const std::string &key, double fraction, int precision)
{
    return add(key, fmtDouble(fraction * 100.0, precision) + "%",
               fmtDouble(fraction, precision + 4));
}

ResultRow &
ResultRow::setGainPct(const std::string &key, double fraction,
                      int precision)
{
    std::string t = fmtDouble(fraction * 100.0, precision) + "%";
    if (fraction >= 0)
        t = "+" + t;
    return add(key, t, fmtDouble(fraction, precision + 4));
}

const std::string &
ResultRow::text(const std::string &key) const
{
    static const std::string kMissing = "-";
    for (const Cell &c : cells_) {
        if (c.key == key)
            return c.text;
    }
    return kMissing;
}

std::string
emitText(const std::vector<ResultRow> &rows, const std::string &title)
{
    // Column set: union of keys in first-appearance order.
    std::vector<std::string> keys;
    for (const ResultRow &r : rows) {
        for (const ResultRow::Cell &c : r.cells()) {
            bool seen = false;
            for (const std::string &k : keys)
                seen = seen || k == c.key;
            if (!seen)
                keys.push_back(c.key);
        }
    }
    // Header row, then one row of display texts per ResultRow.
    std::vector<std::vector<std::string>> table = {keys};
    for (const ResultRow &r : rows) {
        std::vector<std::string> &cells = table.emplace_back();
        for (const std::string &k : keys)
            cells.push_back(r.text(k));
    }
    std::vector<size_t> widths(keys.size(), 0);
    for (const auto &cells : table) {
        for (size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    }
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    if (total >= 2)
        total -= 2;

    // 2-space column gaps; numeric-looking cells after the first
    // column align right.
    std::string out = title.empty() ? "" : title + "\n";
    for (size_t row = 0; row < table.size(); ++row) {
        const std::vector<std::string> &cells = table[row];
        if (cells.empty())
            continue; // no rows, so no columns
        for (size_t i = 0; i < cells.size(); ++i) {
            const std::string &c = cells[i];
            std::string pad(widths[i] - c.size(), ' ');
            if (i > 0)
                out += "  ";
            if (i > 0 && looksNumeric(c))
                out += pad + c;
            else
                out += i + 1 < cells.size() ? c + pad : c;
        }
        out += "\n";
        if (row == 0)
            out += std::string(total, '-') + "\n";
    }
    return out;
}

std::string
emitJsonLine(const std::vector<ResultRow> &rows, const std::string &title)
{
    std::string out = "{\"title\": " + jsonEscape(title) + ", \"rows\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
        out += '{';
        const auto &cells = rows[i].cells();
        for (size_t j = 0; j < cells.size(); ++j) {
            out += jsonEscape(cells[j].key) + ": " + cells[j].json;
            if (j + 1 < cells.size())
                out += ", ";
        }
        out += '}';
        if (i + 1 < rows.size())
            out += ", ";
    }
    out += "]}\n";
    return out;
}

} // namespace bp5::support
