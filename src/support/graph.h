/**
 * @file
 * Natural-loop detection over a plain successor-list graph: the
 * dominator/loop core under the binary CFG loop analysis behind
 * bp5-lint (analysis/loops.h).  A caller builds its successor lists,
 * runs naturalLoops() and then recognizes its own counted-loop shapes
 * on the result.
 *
 * A back edge is an edge b -> h where h dominates b; the loop of h is
 * h plus every node that reaches one of its latches without passing
 * through h.  A cycle with no dominating header (an irreducible
 * region) has no back edge and so is not a natural loop.
 */

#ifndef BIOPERF5_SUPPORT_GRAPH_H
#define BIOPERF5_SUPPORT_GRAPH_H

#include <utility>
#include <vector>

namespace bp5::support {

/** Successor lists indexed by node id; duplicate edges are allowed. */
using Digraph = std::vector<std::vector<int>>;

/** One natural loop. */
struct NaturalLoop
{
    int header = -1;
    std::vector<int> latches; ///< sources of back edges, one per edge
    std::vector<int> blocks;  ///< body including the header, sorted
    std::vector<std::pair<int, int>> exits; ///< (from, to) edges, sorted

    bool contains(int node) const;
};

/**
 * Every natural loop of the nodes reachable from @p entry, largest
 * body first and ties by header, so an outer loop precedes the loops
 * nested in it.  Back edges from unreachable nodes are ignored.
 */
std::vector<NaturalLoop> naturalLoops(const Digraph &succs, int entry);

} // namespace bp5::support

#endif // BIOPERF5_SUPPORT_GRAPH_H
