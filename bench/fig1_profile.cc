/**
 * @file
 * Reproduces paper Fig 1: the function-wise execution-time breakout of
 * the four applications (the gprof analysis of section III), using the
 * native C++ pipelines under the scoped profiler.
 */

#include "bench/bench_util.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Fig 1: function-wise breakout (class %c inputs) "
              "===\n\n",
              "ABC"[int(opts.klass)]);

    for (int a = 0; a < 4; ++a) {
        Workload w(opts.workload(kApps[a]));
        auto prof = w.profileNative();

        std::vector<support::ResultRow> rows;
        for (const auto &f : prof) {
            support::ResultRow row;
            row.set("Function", f.name)
                .setPct("Share", f.share)
                .set("Seconds", f.seconds, 4);
            rows.push_back(row);
        }
        opts.emit(rows, std::string(appName(kApps[a])) + ":");
        opts.note("\n");
    }

    opts.note("Shape checks (paper Fig 1): Clustalw/Fasta/Hmmer "
              "spend more than half their time in forward_pass / "
              "dropgsw / P7Viterbi; Blast's largest consumer is "
              "SEMI_G_ALIGN.\n");
    return 0;
}
