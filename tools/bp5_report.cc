/**
 * @file
 * bp5-report: render and diff POWER5-style CPI stacks from run
 * manifests (the JSON Lines files bp5-trace and the bench drivers
 * append).  Every manifest row carrying the exact per-component
 * `cpi_*` cycle cells becomes one stack.
 *
 *   bp5-report MANIFEST                render stacks as text bars
 *   bp5-report --json MANIFEST         one JSON Lines record per stack
 *   bp5-report --diff BASE NEW         component-by-component deltas
 *   bp5-report --diff A B --fail-on-diff   exit 1 on any nonzero delta
 *   bp5-report --latency MANIFEST      latency percentiles (p50/95/99)
 *
 * --latency aggregates every row carrying a `lat_us` cell (the
 * per-job records bp5-serve appends) into a log2 histogram and
 * reports count, mean and tail percentiles.
 *
 * Diffed runs are matched by identity (tool, workload, variant,
 * input, label) in file order; repeated identities pair up by
 * occurrence.  Exit status: 0 ok, 1 diff found under --fail-on-diff
 * or I/O failure, 2 usage or parse errors.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/cpi_stack.h"
#include "obs/json.h"
#include "sim/counters.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "support/result.h"

using namespace bp5;

namespace {

struct Options
{
    std::string manifest;
    std::string diffBase;
    std::string diffNew;
    bool diff = false;
    bool json = false;
    bool failOnDiff = false;
    bool latency = false;
    unsigned barWidth = 40;
};

void
usage()
{
    std::fputs("usage: bp5-report [--json] [--bar-width=N] MANIFEST\n"
               "       bp5-report --diff BASE NEW [--json] "
               "[--fail-on-diff]\n"
               "       bp5-report --latency [--json] MANIFEST\n",
               stderr);
}

/** One manifest row that carried a CPI stack. */
struct StackRecord
{
    std::string identity; ///< tool|workload|variant|input|label
    std::string display;  ///< human form of the identity
    obs::CpiStack stack;
    double ipc = 0.0;
};

std::string
stringField(const obs::JsonValue &row, const char *key)
{
    const obs::JsonValue *v = row.find(key);
    return v != nullptr && v->isString() ? v->str : std::string("-");
}

uint64_t
numberField(const obs::JsonValue &row, const char *key)
{
    const obs::JsonValue *v = row.find(key);
    return v != nullptr && v->isNumber() ? uint64_t(v->number) : 0;
}

/**
 * Collect the CPI-carrying rows of one manifest (JSON Lines).
 * @return false on I/O or parse errors (reported to stderr).
 */
bool
loadStacks(const std::string &path, std::vector<StackRecord> &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bp5-report: cannot open %s\n", path.c_str());
        return false;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        obs::JsonValue doc;
        std::string err;
        if (!obs::parseJson(line, doc, err)) {
            std::fprintf(stderr, "bp5-report: %s:%zu: %s\n", path.c_str(),
                         lineno, err.c_str());
            return false;
        }
        const obs::JsonValue *rows = doc.find("rows");
        if (rows == nullptr || !rows->isArray())
            continue;
        for (const obs::JsonValue &row : rows->items) {
            if (!row.isObject() ||
                row.find("cpi_completing") == nullptr)
                continue;
            StackRecord rec;
            std::string tool = stringField(row, "tool");
            std::string workload = stringField(row, "workload");
            std::string variant = stringField(row, "variant");
            std::string input = stringField(row, "input");
            std::string label = stringField(row, "label");
            rec.identity = tool + "|" + workload + "|" + variant + "|" +
                           input + "|" + label;
            rec.display = workload + " / " + variant + " (" + input + ")";
            if (label != "-")
                rec.display += " [" + label + "]";
            for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
                std::string key =
                    std::string("cpi_") +
                    sim::cpiComponentKey(sim::CpiComponent(i));
                rec.stack.cycles[i] = numberField(row, key.c_str());
            }
            rec.stack.totalCycles = numberField(row, "cycles");
            rec.stack.instructions = numberField(row, "instructions");
            const obs::JsonValue *ipc = row.find("ipc");
            rec.ipc = ipc != nullptr && ipc->isNumber() ? ipc->number : 0.0;
            out.push_back(std::move(rec));
        }
    }
    return true;
}

int
render(const Options &opts)
{
    std::vector<StackRecord> recs;
    if (!loadStacks(opts.manifest, recs))
        return 2;
    if (recs.empty()) {
        std::fprintf(stderr, "bp5-report: no CPI rows in %s\n",
                     opts.manifest.c_str());
        return 1;
    }
    if (opts.json) {
        std::vector<support::ResultRow> rows;
        for (const StackRecord &r : recs) {
            support::ResultRow row;
            row.set("run", r.display)
                .set("cycles", r.stack.totalCycles)
                .set("instructions", r.stack.instructions)
                .set("ipc", r.ipc)
                .set("consistent", r.stack.consistent() ? "yes" : "no");
            for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
                auto comp = sim::CpiComponent(i);
                row.set(std::string("cpi_") + sim::cpiComponentKey(comp),
                        r.stack.cycles[i]);
                row.setPct(std::string("share_") +
                               sim::cpiComponentKey(comp),
                           r.stack.share(comp));
            }
            rows.push_back(std::move(row));
        }
        std::fputs(support::emitJsonLine(rows, "cpi-report").c_str(),
                   stdout);
        return 0;
    }
    for (const StackRecord &r : recs) {
        std::printf("%s\n", r.display.c_str());
        std::fputs(obs::renderCpiStack(r.stack, opts.barWidth).c_str(),
                   stdout);
        std::printf("\n");
    }
    return 0;
}

/**
 * Aggregate every manifest row carrying a `lat_us` cell into one log2
 * histogram and report the tail (serving-SLO view of a manifest).
 */
int
latencyReport(const Options &opts)
{
    std::ifstream in(opts.manifest);
    if (!in) {
        std::fprintf(stderr, "bp5-report: cannot open %s\n",
                     opts.manifest.c_str());
        return 2;
    }
    support::Log2Histogram h;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        obs::JsonValue doc;
        std::string err;
        if (!obs::parseJson(line, doc, err)) {
            std::fprintf(stderr, "bp5-report: %s:%zu: %s\n",
                         opts.manifest.c_str(), lineno, err.c_str());
            return 2;
        }
        const obs::JsonValue *rows = doc.find("rows");
        if (rows == nullptr || !rows->isArray())
            continue;
        for (const obs::JsonValue &row : rows->items) {
            if (!row.isObject())
                continue;
            const obs::JsonValue *lat = row.find("lat_us");
            if (lat != nullptr && lat->isNumber() && lat->number >= 0)
                h.add(uint64_t(lat->number));
        }
    }
    if (h.total() == 0) {
        std::fprintf(stderr, "bp5-report: no lat_us rows in %s\n",
                     opts.manifest.c_str());
        return 1;
    }
    if (opts.json) {
        support::ResultRow row;
        row.set("jobs", h.total())
            .set("mean_us", h.mean(), 1)
            .set("min_us", h.min())
            .set("max_us", h.max())
            .set("p50_us", h.percentile(50))
            .set("p95_us", h.percentile(95))
            .set("p99_us", h.percentile(99));
        std::fputs(
            support::emitJsonLine({row}, "latency-report").c_str(),
            stdout);
        return 0;
    }
    std::printf("latency over %" PRIu64 " job(s): mean %.1f us, "
                "p50 %" PRIu64 ", p95 %" PRIu64 ", p99 %" PRIu64 " us\n",
                h.total(), h.mean(), h.percentile(50), h.percentile(95),
                h.percentile(99));
    std::fputs(h.toText(opts.barWidth).c_str(), stdout);
    return 0;
}

int
diff(const Options &opts)
{
    std::vector<StackRecord> base, fresh;
    if (!loadStacks(opts.diffBase, base) ||
        !loadStacks(opts.diffNew, fresh))
        return 2;

    // Pair records by identity in occurrence order.
    std::map<std::string, std::vector<size_t>> baseByKey;
    for (size_t i = 0; i < base.size(); ++i)
        baseByKey[base[i].identity].push_back(i);
    std::map<std::string, size_t> used;

    bool anyDelta = false;
    uint64_t unmatched = 0;
    std::vector<support::ResultRow> rows;
    for (const StackRecord &n : fresh) {
        auto it = baseByKey.find(n.identity);
        size_t &cursor = used[n.identity];
        if (it == baseByKey.end() || cursor >= it->second.size()) {
            ++unmatched;
            std::fprintf(stderr,
                         "bp5-report: no baseline match for %s\n",
                         n.display.c_str());
            continue;
        }
        const StackRecord &b = base[it->second[cursor++]];

        support::ResultRow row;
        int64_t dCycles = int64_t(n.stack.totalCycles) -
                          int64_t(b.stack.totalCycles);
        row.set("run", n.display)
            .set("base_cycles", b.stack.totalCycles)
            .set("new_cycles", n.stack.totalCycles)
            .set("delta_cycles", dCycles)
            .set("delta_ipc", n.ipc - b.ipc, 4);
        bool rowDelta = dCycles != 0;
        for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
            auto comp = sim::CpiComponent(i);
            int64_t d = int64_t(n.stack.cycles[i]) -
                        int64_t(b.stack.cycles[i]);
            row.set(std::string("d_cpi_") + sim::cpiComponentKey(comp), d);
            rowDelta = rowDelta || d != 0;
        }
        anyDelta = anyDelta || rowDelta;
        rows.push_back(std::move(row));

        if (!opts.json) {
            std::printf("%s\n", n.display.c_str());
            std::printf("  %-14s %12s %12s %12s %9s\n", "component",
                        "base", "new", "delta", "d-share");
            for (size_t i = 0; i < sim::kNumCpiComponents; ++i) {
                auto comp = sim::CpiComponent(i);
                int64_t d = int64_t(n.stack.cycles[i]) -
                            int64_t(b.stack.cycles[i]);
                if (d == 0 && n.stack.cycles[i] == 0)
                    continue;
                std::printf("  %-14s %12" PRIu64 " %12" PRIu64
                            " %+12" PRId64 " %+8.2fpp\n",
                            sim::cpiComponentLabel(comp),
                            b.stack.cycles[i], n.stack.cycles[i], d,
                            100.0 * (n.stack.share(comp) -
                                     b.stack.share(comp)));
            }
            std::printf("  %-14s %12" PRIu64 " %12" PRIu64 " %+12" PRId64
                        "  (ipc %+.4f)\n\n",
                        "total", b.stack.totalCycles, n.stack.totalCycles,
                        dCycles, n.ipc - b.ipc);
        }
    }
    if (opts.json)
        std::fputs(support::emitJsonLine(rows, "cpi-diff").c_str(),
                   stdout);
    if (rows.empty()) {
        std::fprintf(stderr, "bp5-report: nothing to diff\n");
        return 1;
    }
    if (unmatched != 0 && !opts.json)
        std::printf("%" PRIu64 " run(s) without a baseline match\n",
                    unmatched);
    if (opts.failOnDiff && (anyDelta || unmatched != 0)) {
        std::fprintf(stderr, "bp5-report: CPI stacks differ\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
        };
        if (a == "--diff") {
            opts.diff = true;
        } else if (a == "--latency") {
            opts.latency = true;
        } else if (a == "--json") {
            opts.json = true;
        } else if (a == "--fail-on-diff") {
            opts.failOnDiff = true;
        } else if (const char *v = val("--bar-width=")) {
            if (!parseNumber(v, opts.barWidth)) {
                std::fprintf(stderr, "bp5-report: bad value in '%s'\n",
                             a.c_str());
                return 2;
            }
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            usage();
            return 2;
        } else {
            positional.push_back(a);
        }
    }
    if (opts.diff) {
        if (positional.size() != 2) {
            usage();
            return 2;
        }
        opts.diffBase = positional[0];
        opts.diffNew = positional[1];
        return diff(opts);
    }
    if (positional.size() != 1) {
        usage();
        return 2;
    }
    opts.manifest = positional[0];
    return opts.latency ? latencyReport(opts) : render(opts);
}
