#include "bio/parsimony.h"

#include <algorithm>

#include "support/logging.h"

namespace bp5::bio {

namespace {

constexpr int64_t kBig = 1LL << 40;

} // namespace

ParsimonyCost::ParsimonyCost(Alphabet alphabet, int64_t mismatch)
    : k_(alphabetSize(alphabet)),
      table_(k_ * k_, mismatch)
{
    for (unsigned i = 0; i < k_; ++i)
        table_[i * k_ + i] = 0;
}

ParsimonyCost
ParsimonyCost::unit(Alphabet alphabet)
{
    return ParsimonyCost(alphabet, 1);
}

ParsimonyCost
ParsimonyCost::transitionTransversion(int64_t ts, int64_t tv)
{
    ParsimonyCost c(Alphabet::Dna, tv);
    // DNA codes: A=0 C=1 G=2 T=3; transitions are A<->G and C<->T.
    c.set(0, 2, ts);
    c.set(2, 0, ts);
    c.set(1, 3, ts);
    c.set(3, 1, ts);
    return c;
}

void
ParsimonyCost::set(unsigned a, unsigned b, int64_t v)
{
    BP5_ASSERT(a < k_ && b < k_, "state out of range");
    BP5_ASSERT(v >= 0, "parsimony costs must be non-negative");
    table_[a * k_ + b] = v;
}

int64_t
sankoffSite(const GuideTree &tree, std::span<const uint8_t> states,
            const ParsimonyCost &cost)
{
    BP5_ASSERT(tree.root >= 0, "empty tree");
    unsigned K = cost.size();
    std::vector<std::vector<int64_t>> dp(
        tree.nodes.size(), std::vector<int64_t>(K, kBig));

    // Nodes are created children-before-parents by the tree builders,
    // so a forward sweep is a valid post-order evaluation.
    for (size_t n = 0; n < tree.nodes.size(); ++n) {
        const GuideTree::Node &nd = tree.nodes[n];
        if (nd.leaf >= 0) {
            uint8_t s = states[static_cast<size_t>(nd.leaf)];
            BP5_ASSERT(s < K, "leaf state out of range");
            dp[n][s] = 0;
            continue;
        }
        BP5_ASSERT(static_cast<size_t>(nd.left) < n &&
                   static_cast<size_t>(nd.right) < n,
                   "tree is not in post-order");
        for (unsigned s = 0; s < K; ++s) {
            int64_t bl = kBig, br = kBig;
            for (unsigned t = 0; t < K; ++t) {
                bl = std::min(bl, dp[size_t(nd.left)][t] + cost.cost(s, t));
                br = std::min(br,
                              dp[size_t(nd.right)][t] + cost.cost(s, t));
            }
            dp[n][s] = bl + br;
        }
    }
    const auto &root = dp[static_cast<size_t>(tree.root)];
    return *std::min_element(root.begin(), root.end());
}

} // namespace bp5::bio
