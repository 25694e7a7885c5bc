#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "phases.h"

namespace perfbench {

/** The path a workload spends most of its timed region on. */
enum class MainPath { Sweep, Fast, Serve };

/**
 * Per-layer probes of the traced run: ns/inst of full-detail timing per
 * grid configuration, component replay (L1D, predictor, BTAC), trace
 * sink overhead, serve codec cost and the native-reference share of
 * KernelMachine::run on @p path's inputs.  Every probe has a fixed
 * instruction @p budget.
 */
void measureLayers(uint64_t seed, MainPath path, uint64_t budget,
                   Spans &spans, Outcome &out, Metrics &layer,
                   Metrics &detail);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
