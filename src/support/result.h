/**
 * @file
 * Shared results layer for the experiment drivers and analysis tools:
 * a ResultRow is an ordered list of (key, value) cells with
 * deterministic formatting, and a row set can be emitted either as an
 * aligned-text table (the paper-style console output) or as JSON (for
 * downstream tooling).  Every formatting path is locale-independent
 * and byte-deterministic, so sweeps are diffable run-to-run and
 * thread-count-independent.
 *
 * Lives in support (not driver) so that lower layers — notably the
 * bp5_analysis lint — can emit the same JSON Lines records without
 * depending on the experiment driver.
 */

#ifndef BIOPERF5_SUPPORT_RESULT_H
#define BIOPERF5_SUPPORT_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

namespace bp5::support {

/** One experiment-output row: ordered named cells. */
class ResultRow
{
  public:
    /** One cell; text is the display form, json the JSON literal. */
    struct Cell
    {
        std::string key;
        std::string text;
        std::string json;
    };

    /** String cell. */
    ResultRow &set(const std::string &key, const std::string &value);
    ResultRow &set(const std::string &key, const char *value);

    /** Fixed-point double cell (display and JSON use @p precision). */
    ResultRow &set(const std::string &key, double value,
                   int precision = 2);

    /** Integer cells. */
    ResultRow &set(const std::string &key, uint64_t value);
    ResultRow &set(const std::string &key, int64_t value);
    ResultRow &set(const std::string &key, int value);
    ResultRow &set(const std::string &key, unsigned value);

    /** Percentage cell: displays "12.3%", JSON carries the fraction. */
    ResultRow &setPct(const std::string &key, double fraction,
                      int precision = 1);

    /**
     * Signed-percentage cell for gains: displays "+12.3%" / "-4.2%",
     * JSON carries the fraction.
     */
    ResultRow &setGainPct(const std::string &key, double fraction,
                          int precision = 1);

    const std::vector<Cell> &cells() const { return cells_; }

    /** Display text of cell @p key, or "-" when absent. */
    const std::string &text(const std::string &key) const;

  private:
    ResultRow &add(const std::string &key, std::string text,
                   std::string json);

    std::vector<Cell> cells_;
};

/**
 * Render @p rows as an aligned-text table.  Columns are the union of
 * all row keys in first-appearance order; missing cells print as "-".
 */
std::string emitText(const std::vector<ResultRow> &rows,
                     const std::string &title = "");

/**
 * Render one table as a single JSON Lines record:
 * `{"title": "...", "rows": [{...}, ...]}\n` with no interior
 * newlines, so a multi-table bench emits one parseable JSON document
 * per line of stdout.
 */
std::string emitJsonLine(const std::vector<ResultRow> &rows,
                         const std::string &title);

/**
 * @p s as a quoted JSON string literal: `"` and `\` are escaped, `\n`,
 * `\r` and `\t` get their short escapes and any other byte below 0x20
 * becomes `\u00XX`; every other byte is copied as is.
 */
std::string jsonEscape(const std::string &s);

} // namespace bp5::support

#endif // BIOPERF5_SUPPORT_RESULT_H
