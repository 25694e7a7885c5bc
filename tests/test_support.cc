/**
 * @file
 * Unit tests for the support library: bitfields, RNG, statistics,
 * saturating counters, table formatting, the thread pool, the
 * natural-loop core and the demand-zero array.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "support/bitfield.h"
#include "support/graph.h"
#include "support/logging.h"
#include "support/random.h"
#include "support/result.h"
#include "support/saturating_counter.h"
#include "support/thread_pool.h"
#include "support/zero_page_array.h"

namespace bp5 {
namespace {

TEST(Bitfield, MaskBasics)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(16), 0xffffu);
    EXPECT_EQ(mask(64), ~0ULL);
}

TEST(Bitfield, BitsExtract)
{
    EXPECT_EQ(bits(0xdeadbeef, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeef, 28, 4), 0xdu);
    EXPECT_EQ(bit(0x80000000u, 31), 1u);
    EXPECT_EQ(bit(0x80000000u, 30), 0u);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 8, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffffffff, 8, 8, 0), 0xffff00ffu);
    // Field wider than value is masked.
    EXPECT_EQ(insertBits(0, 0, 4, 0x1f), 0xfu);
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0x8000, 16), -32768);
    EXPECT_EQ(sext(0xffff, 16), -1);
    EXPECT_EQ(sext(0x0, 16), 0);
    EXPECT_EQ(sext(0xffffffffffffffffULL, 64), -1);
}

TEST(Bitfield, Pow2Helpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(24));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformMean)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng r(13);
    std::vector<double> w = {0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 40000; ++i)
        ++counts[r.weighted(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(double(counts[2]) / counts[1], 3.0, 0.2);
}

TEST(Counter2, SaturatesBothEnds)
{
    uint8_t c = 0;
    counter2::update(c, false);
    EXPECT_EQ(c, 0u);
    for (int i = 0; i < 10; ++i)
        counter2::update(c, true);
    EXPECT_EQ(c, 3u);
    EXPECT_TRUE(counter2::high(c));
    counter2::update(c, false);
    counter2::update(c, false);
    EXPECT_FALSE(counter2::high(c));
}

TEST(Counter2, WeakStartFlipsOnOneOutcome)
{
    uint8_t c = counter2::kWeaklyNotTaken;
    EXPECT_FALSE(counter2::high(c));
    counter2::update(c, true);
    EXPECT_TRUE(counter2::high(c));
}

TEST(TextTable, RendersAlignedColumns)
{
    support::ResultRow blast, clustalw;
    blast.set("App", "Blast").set("IPC", 0.9);
    clustalw.set("App", "Clustalw").set("IPC", 1.1);
    // Numeric cells right-align under the header; text left-aligns.
    EXPECT_EQ(support::emitText({blast, clustalw}, "Title"),
              "Title\n"
              "App       IPC\n"
              "--------------\n"
              "Blast     0.90\n"
              "Clustalw  1.10\n");
}

TEST(TextTable, Formatters)
{
    support::ResultRow r;
    r.set("num", 3.14159, 2).setPct("pct", 0.258, 1);
    EXPECT_EQ(r.text("num"), "3.14");
    EXPECT_EQ(r.text("pct"), "25.8%");
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d s=%s", 5, "y"), "x=5 s=y");
}

TEST(Logging, ParseNumberIsStrict)
{
    uint64_t u = 7;
    for (const char *bad : {"", "abc", "12x", "-1", "+1", " 1", "1 ",
                            "18446744073709551616", "0x10"})
        EXPECT_FALSE(parseNumber(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u); // a rejected value leaves the destination alone
    EXPECT_TRUE(parseNumber("18446744073709551615", u));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_TRUE(parseNumber("0x10", u, 0)); // base 0 keeps C prefixes
    EXPECT_EQ(u, 16u);
    EXPECT_FALSE(parseNumber("0x", u, 0));

    unsigned w = 7;
    EXPECT_FALSE(parseNumber("4294967296", w)); // UINT_MAX + 1
    EXPECT_FALSE(parseNumber("-1", w));
    EXPECT_EQ(w, 7u);
    EXPECT_TRUE(parseNumber("4294967295", w));
    EXPECT_EQ(w, 4294967295u);

    double d = 7.0;
    for (const char *bad : {"", "abc", "1.5x", "-1", "inf", "nan", "1e999"})
        EXPECT_FALSE(parseNumber(bad, d)) << "'" << bad << "'";
    EXPECT_EQ(d, 7.0);
    EXPECT_TRUE(parseNumber("600", d));
    EXPECT_EQ(d, 600.0);
    EXPECT_TRUE(parseNumber("0.25", d));
    EXPECT_EQ(d, 0.25);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    support::ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    constexpr size_t kItems = 1000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallelFor(kItems, [&](unsigned worker, size_t i) {
        EXPECT_LT(worker, pool.threads());
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusedAcrossCallsAndEmptyJobs)
{
    support::ThreadPool pool(3);
    std::atomic<size_t> total{0};
    pool.parallelFor(0, [&](unsigned, size_t) { total += 1; });
    EXPECT_EQ(total.load(), 0u);
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(17, [&](unsigned, size_t) { total += 1; });
    EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPool, SingleWorkerAndMoreItemsThanThreads)
{
    support::ThreadPool pool(1);
    std::vector<size_t> order;
    pool.parallelFor(8, [&](unsigned worker, size_t i) {
        EXPECT_EQ(worker, 0u);
        order.push_back(i); // single worker: no race, FIFO claim order
    });
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ConcurrentCallersAreSerialized)
{
    support::ThreadPool pool(2);
    std::atomic<size_t> total{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c)
        callers.emplace_back([&] {
            for (int round = 0; round < 20; ++round)
                pool.parallelFor(25, [&](unsigned, size_t) {
                    total.fetch_add(1, std::memory_order_relaxed);
                });
        });
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(total.load(), 4u * 20u * 25u);
}

TEST(ThreadPool, ZeroThreadsPicksHardwareConcurrency)
{
    support::ThreadPool pool(0);
    EXPECT_GE(pool.threads(), 1u);
}

// --------------------------------------------------------------------
// Natural loops.
// --------------------------------------------------------------------

using support::Digraph;
using support::naturalLoops;
using Edges = std::vector<std::pair<int, int>>;

TEST(NaturalLoops, SelfLoop)
{
    auto loops = naturalLoops(Digraph{{1}, {1, 2}, {}}, 0);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[0].latches, std::vector<int>{1});
    EXPECT_EQ(loops[0].blocks, std::vector<int>{1});
    EXPECT_EQ(loops[0].exits, (Edges{{1, 2}}));
    EXPECT_TRUE(loops[0].contains(1));
    EXPECT_FALSE(loops[0].contains(0));
}

TEST(NaturalLoops, OneHeaderTwoLatches)
{
    auto loops = naturalLoops(Digraph{{1}, {2, 3}, {1}, {1, 4}, {}}, 0);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[0].latches, (std::vector<int>{2, 3}));
    EXPECT_EQ(loops[0].blocks, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loops[0].exits, (Edges{{3, 4}}));
}

TEST(NaturalLoops, NestIsOuterFirst)
{
    // 1 -> 2 <-> 3 -> 4 -> 1, exit 4 -> 5.
    auto loops =
        naturalLoops(Digraph{{1}, {2}, {3}, {2, 4}, {1, 5}, {}}, 0);
    ASSERT_EQ(loops.size(), 2u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[0].blocks, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(loops[0].exits, (Edges{{4, 5}}));
    EXPECT_EQ(loops[1].header, 2);
    EXPECT_EQ(loops[1].latches, std::vector<int>{3});
    EXPECT_EQ(loops[1].blocks, (std::vector<int>{2, 3}));
    EXPECT_EQ(loops[1].exits, (Edges{{3, 4}}));
}

TEST(NaturalLoops, EqualSizesOrderedByHeader)
{
    // Node 2's self-loop runs before node 1's but sorts after it.
    auto loops = naturalLoops(Digraph{{2}, {1, 3}, {2, 1}, {}}, 0);
    ASSERT_EQ(loops.size(), 2u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[1].header, 2);
}

TEST(NaturalLoops, DuplicateEdgeRepeatsTheLatch)
{
    // A `br` whose two targets are both the header.
    auto loops = naturalLoops(Digraph{{1}, {2}, {1, 1}}, 0);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].latches, (std::vector<int>{2, 2}));
    EXPECT_EQ(loops[0].blocks, (std::vector<int>{1, 2}));
    EXPECT_TRUE(loops[0].exits.empty());
}

TEST(NaturalLoops, BackEdgeFromUnreachableNodeIsIgnored)
{
    // Node 3 is unreachable: its self-loop and its edge into 1 form no
    // loop.
    auto loops = naturalLoops(Digraph{{1}, {2}, {}, {3, 1}}, 0);
    EXPECT_TRUE(loops.empty());
}

TEST(NaturalLoops, IrreducibleCycleIsNoLoop)
{
    // 1 <-> 2 is entered at both nodes: neither dominates the other.
    auto loops = naturalLoops(Digraph{{1, 2}, {2}, {1}}, 0);
    EXPECT_TRUE(loops.empty());
}

TEST(NaturalLoops, EntryWithNoSuccessors)
{
    EXPECT_TRUE(naturalLoops(Digraph{{}}, 0).empty());
    EXPECT_TRUE(naturalLoops(Digraph{{}, {1}}, 0).empty());
    EXPECT_TRUE(naturalLoops(Digraph{}, -1).empty());
}

TEST(NaturalLoops, ExitEdgesSorted)
{
    auto loops = naturalLoops(Digraph{{1}, {4, 3, 2}, {5, 1}, {}, {}, {}}, 0);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].blocks, (std::vector<int>{1, 2}));
    EXPECT_EQ(loops[0].exits, (Edges{{1, 3}, {1, 4}, {2, 5}}));
}

// ------------------------------------------------------ ZeroPageArray

using support::ZeroPageArray;

/** A slot whose empty state is all-ones: not zero-page material. */
struct OnesSlot
{
    uint64_t addr = ~0ULL;
    uint32_t epoch = 0;

    friend bool operator==(const OnesSlot &, const OnesSlot &) = default;
};

/** The same slot with a zero empty state (padding after epoch). */
struct ZeroSlot
{
    uint64_t addr = 0;
    uint32_t epoch = 0;

    friend bool operator==(const ZeroSlot &, const ZeroSlot &) = default;
};

TEST(ZeroPageArray, ZeroIsDefaultSeesEveryMember)
{
    // The compile-time check ZeroPageArray(n) makes of its element
    // type (and so of Cache::Line and the classic StoreSlot).
    static_assert(support::zeroIsDefault<uint64_t>());
    static_assert(support::zeroIsDefault<ZeroSlot>());
    static_assert(!support::zeroIsDefault<OnesSlot>());
    EXPECT_TRUE(support::zeroIsDefault<ZeroSlot>());
}

TEST(ZeroPageArray, NewArrayReadsAsZeros)
{
    // Spans several pages and ends mid-page.
    ZeroPageArray<ZeroSlot> a(3000);
    ASSERT_EQ(a.size(), 3000u);
    for (const ZeroSlot &s : a)
        ASSERT_EQ(s, ZeroSlot());
    a[2999].addr = 7; // the last element is writable
    EXPECT_EQ(a[2999].addr, 7u);

    EXPECT_THROW(ZeroPageArray<uint64_t>(SIZE_MAX / 4), std::bad_alloc);

    ZeroPageArray<uint64_t> none(0);
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.begin(), none.end());
}

TEST(ZeroPageArray, CopyIsDeepAndIndependent)
{
    ZeroPageArray<uint64_t> a(2048);
    a[0] = 1;
    a[2047] = 2;
    ZeroPageArray<uint64_t> b = a;
    ASSERT_EQ(b.size(), 2048u);
    EXPECT_NE(b.data(), a.data());
    EXPECT_EQ(b[0], 1u);
    EXPECT_EQ(b[2047], 2u);
    b[0] = 3;
    a[2047] = 4;
    EXPECT_EQ(a[0], 1u);
    EXPECT_EQ(b[2047], 2u);

    ZeroPageArray<uint64_t> c(1);
    c = a; // copy assignment replaces c's mapping
    EXPECT_EQ(c.size(), 2048u);
    EXPECT_EQ(c[2047], 4u);
}

TEST(ZeroPageArray, MoveLeavesTheSourceEmpty)
{
    ZeroPageArray<uint64_t> a(100);
    a[99] = 9;
    const uint64_t *mapping = a.data();
    ZeroPageArray<uint64_t> b = std::move(a);
    EXPECT_EQ(b.data(), mapping); // the mapping moved, nothing copied
    EXPECT_EQ(b[99], 9u);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.data(), nullptr);

    ZeroPageArray<uint64_t> c;
    c = std::move(b);
    EXPECT_EQ(c.data(), mapping);
    EXPECT_EQ(b.size(), 0u);
}

TEST(ZeroPageArray, OverrunHitsTheGuardPage)
{
    // 1000 elements end mid-page; the array is placed so its end meets
    // the guard page, and one element past it faults.
    ZeroPageArray<uint64_t> a(1000);
    volatile uint64_t *p = a.data();
    p[999] = 1;
    EXPECT_DEATH(p[1000] = 2, "");
}

TEST(ZeroPageArray, FillStoresEveryElement)
{
    ZeroPageArray<ZeroSlot> a(1000);
    a.fill(ZeroSlot{5, 6});
    for (const ZeroSlot &s : a)
        ASSERT_EQ(s, (ZeroSlot{5, 6}));
    a.fill(ZeroSlot());
    for (const ZeroSlot &s : a)
        ASSERT_EQ(s, ZeroSlot());
}

} // namespace
} // namespace bp5
