#include "support/graph.h"

#include <algorithm>
#include <cstdint>

namespace bp5::support {

bool
NaturalLoop::contains(int node) const
{
    return std::binary_search(blocks.begin(), blocks.end(), node);
}

namespace {

/** Reverse postorder of the nodes reachable from @p entry. */
std::vector<int>
reversePostorder(const Digraph &succs, int entry)
{
    std::vector<int> order;
    std::vector<uint8_t> seen(succs.size(), 0);
    // Iterative DFS with an explicit stack of (node, next successor).
    std::vector<std::pair<int, size_t>> stack{{entry, 0}};
    seen[static_cast<size_t>(entry)] = 1;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const std::vector<int> &out = succs[static_cast<size_t>(b)];
        if (next < out.size()) {
            int s = out[next++];
            if (!seen[static_cast<size_t>(s)]) {
                seen[static_cast<size_t>(s)] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/**
 * Immediate dominators by the Cooper-Harvey-Kennedy iteration:
 * idom[entry] == entry, -1 for nodes not reachable from the entry.
 */
std::vector<int>
dominators(const Digraph &succs, const Digraph &preds, int entry)
{
    std::vector<int> rpo = reversePostorder(succs, entry);
    std::vector<int> rpoIndex(succs.size(), -1);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpoIndex[static_cast<size_t>(rpo[i])] = static_cast<int>(i);

    std::vector<int> idom(succs.size(), -1);
    idom[static_cast<size_t>(entry)] = entry;
    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoIndex[static_cast<size_t>(a)] >
                   rpoIndex[static_cast<size_t>(b)])
                a = idom[static_cast<size_t>(a)];
            while (rpoIndex[static_cast<size_t>(b)] >
                   rpoIndex[static_cast<size_t>(a)])
                b = idom[static_cast<size_t>(b)];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : rpo) {
            if (b == entry)
                continue;
            int newIdom = -1;
            for (int p : preds[static_cast<size_t>(b)]) {
                if (idom[static_cast<size_t>(p)] == -1)
                    continue; // unreachable or not yet processed
                newIdom = newIdom == -1 ? p : intersect(p, newIdom);
            }
            if (newIdom != -1 && idom[static_cast<size_t>(b)] != newIdom) {
                idom[static_cast<size_t>(b)] = newIdom;
                changed = true;
            }
        }
    }
    return idom;
}

/** True if @p a dominates the reachable node @p b. */
bool
dominates(const std::vector<int> &idom, int a, int b)
{
    while (b != a) {
        int up = idom[static_cast<size_t>(b)];
        if (up == b)
            return false; // walked up to the entry
        b = up;
    }
    return true;
}

} // namespace

std::vector<NaturalLoop>
naturalLoops(const Digraph &succs, int entry)
{
    const size_t n = succs.size();
    if (entry < 0 || static_cast<size_t>(entry) >= n)
        return {};
    Digraph preds(n);
    for (size_t b = 0; b < n; ++b) {
        for (int s : succs[b])
            preds[static_cast<size_t>(s)].push_back(static_cast<int>(b));
    }
    std::vector<int> idom = dominators(succs, preds, entry);

    // Back edges b -> h where h dominates b, grouped by header.
    Digraph latchesOf(n);
    for (size_t b = 0; b < n; ++b) {
        if (idom[b] == -1)
            continue; // unreachable
        for (int s : succs[b]) {
            if (dominates(idom, s, static_cast<int>(b)))
                latchesOf[static_cast<size_t>(s)].push_back(
                    static_cast<int>(b));
        }
    }

    std::vector<NaturalLoop> loops;
    for (size_t h = 0; h < n; ++h) {
        if (latchesOf[h].empty())
            continue;
        NaturalLoop loop;
        loop.header = static_cast<int>(h);
        loop.latches = std::move(latchesOf[h]);
        // Body: everything reaching a latch without passing through
        // the header.
        std::vector<bool> in(n, false);
        in[h] = true;
        std::vector<int> work;
        for (int l : loop.latches) {
            if (!in[static_cast<size_t>(l)]) {
                in[static_cast<size_t>(l)] = true;
                work.push_back(l);
            }
        }
        while (!work.empty()) {
            int b = work.back();
            work.pop_back();
            for (int p : preds[static_cast<size_t>(b)]) {
                if (!in[static_cast<size_t>(p)]) {
                    in[static_cast<size_t>(p)] = true;
                    work.push_back(p);
                }
            }
        }
        for (size_t b = 0; b < n; ++b) {
            if (!in[b])
                continue;
            loop.blocks.push_back(static_cast<int>(b));
            for (int s : succs[b]) {
                if (!in[static_cast<size_t>(s)])
                    loop.exits.emplace_back(static_cast<int>(b), s);
            }
        }
        std::sort(loop.exits.begin(), loop.exits.end());
        loops.push_back(std::move(loop));
    }
    // Headers were visited in ascending order, so a stable sort by size
    // leaves ties ordered by header.
    std::stable_sort(loops.begin(), loops.end(),
                     [](const NaturalLoop &a, const NaturalLoop &b) {
                         return a.blocks.size() > b.blocks.size();
                     });
    return loops;
}

} // namespace bp5::support
