/**
 * @file
 * Unit tests for the simulator's building blocks in isolation: sparse
 * memory and its software TLB, set-associative caches, direction predictors, and the
 * score-based BTAC.
 */

#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/memory.h"
#include "sim/predictor.h"
#include "support/bitfield.h"
#include "support/random.h"
#include "support/saturating_counter.h"

namespace bp5::sim {
namespace {

// ------------------------------------------------------------ memory

TEST(Memory, ZeroInitialized)
{
    Memory m;
    EXPECT_EQ(m.readU64(0x1234), 0u);
    EXPECT_EQ(m.readU8(0), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(Memory, ReadWriteAllWidths)
{
    Memory m;
    m.writeU8(0x100, 0xab);
    m.writeU16(0x102, 0x1234);
    m.writeU32(0x104, 0xdeadbeef);
    m.writeU64(0x108, 0x0102030405060708ULL);
    EXPECT_EQ(m.readU8(0x100), 0xab);
    EXPECT_EQ(m.readU16(0x102), 0x1234);
    EXPECT_EQ(m.readU32(0x104), 0xdeadbeefu);
    EXPECT_EQ(m.readU64(0x108), 0x0102030405060708ULL);
}

TEST(Memory, LittleEndianLayout)
{
    Memory m;
    m.writeU32(0x200, 0x11223344);
    EXPECT_EQ(m.readU8(0x200), 0x44);
    EXPECT_EQ(m.readU8(0x203), 0x11);
}

TEST(Memory, CrossPageBlockAccess)
{
    Memory m;
    std::vector<uint8_t> data(Memory::kPageSize + 64);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    uint64_t base = Memory::kPageSize - 32; // straddles the boundary
    m.writeBlock(base, data.data(), data.size());
    std::vector<uint8_t> back(data.size());
    m.readBlock(base, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_GE(m.residentPages(), 2u);
}

TEST(Memory, UnalignedScalarAccess)
{
    Memory m;
    uint64_t base = Memory::kPageSize - 3; // straddles two pages
    m.writeU64(base, 0x1122334455667788ULL);
    EXPECT_EQ(m.readU64(base), 0x1122334455667788ULL);
}

TEST(Memory, ClearDropsEverything)
{
    Memory m;
    m.writeU64(0x1000, 42);
    m.clear();
    EXPECT_EQ(m.readU64(0x1000), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

// -------------------------------------------------------- memory TLB

// A copy would carry TLB pointers into the source's pages.
static_assert(!std::is_copy_constructible_v<Memory>);
static_assert(!std::is_copy_assignable_v<Memory>);

/** Base address of page @p pn. */
constexpr uint64_t
pageBase(uint64_t pn)
{
    return pn << Memory::kPageShift;
}

TEST(MemoryTlb, ConflictingPagesEvictEachOther)
{
    // Pages kTlbSlots apart share one slot; alternating between them
    // evicts on every access and must never return the other's data.
    Memory m;
    const uint64_t a = pageBase(5) + 0x18;
    const uint64_t b = pageBase(5 + Memory::kTlbSlots) + 0x18;
    for (uint64_t i = 0; i < 16; ++i) {
        m.writeU64(a, 0xa000 + i);
        m.writeU64(b, 0xb000 + i);
        EXPECT_EQ(m.readU64(a), 0xa000 + i);
        EXPECT_EQ(m.readU64(b), 0xb000 + i);
        EXPECT_EQ(m.readU8(a), uint8_t(i));
    }
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(MemoryTlb, AbsentReadIsNotCachedBeforeWrite)
{
    Memory m;
    const uint64_t addr = pageBase(9) + 0x40;
    EXPECT_EQ(m.readU32(addr), 0u);
    EXPECT_EQ(m.residentPages(), 0u); // reads never allocate
    m.writeU32(addr, 0xfeedf00d);
    EXPECT_EQ(m.readU32(addr), 0xfeedf00du);
    EXPECT_EQ(m.residentPages(), 1u);
}

TEST(MemoryTlb, ClearDropsCachedTranslations)
{
    Memory m;
    const uint64_t addr = pageBase(3) + 8;
    m.writeU64(addr, 42);
    EXPECT_EQ(m.readU64(addr), 42u); // translation now cached
    m.clear();
    // A stale slot would let this write land in the freed page without
    // allocating a new one.
    m.writeU16(addr + 16, 7);
    EXPECT_EQ(m.residentPages(), 1u);
    EXPECT_EQ(m.readU64(addr), 0u);
    EXPECT_EQ(m.readU16(addr + 16), 7u);
}

TEST(MemoryTlb, RoundRobinBeyondCapacity)
{
    Memory m;
    const uint64_t pages = 3 * Memory::kTlbSlots + 5;
    for (uint64_t pn = 0; pn < pages; ++pn)
        m.writeU64(pageBase(pn) + 8 * (pn % 16), pn * 0x9e3779b9ULL);
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t pn = 0; pn < pages; ++pn) {
            ASSERT_EQ(m.readU64(pageBase(pn) + 8 * (pn % 16)),
                      pn * 0x9e3779b9ULL)
                << "page " << pn << " pass " << pass;
        }
    }
    EXPECT_EQ(m.residentPages(), pages);
}

/**
 * Differential test against a byte map: random reads and writes of
 * every width and of short blocks, at aligned, unaligned and
 * page-straddling addresses over more pages than the TLB holds
 * (including pages that share a slot), with an occasional clear().
 */
class MemoryTlbFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MemoryTlbFuzz, MatchesByteMapReference)
{
    Rng r(0x5eed0000ULL + uint64_t(GetParam()));
    Memory m;
    std::map<uint64_t, uint8_t> ref;

    auto refRead = [&](uint64_t addr, unsigned len) {
        uint64_t v = 0;
        for (unsigned k = 0; k < len; ++k) {
            auto it = ref.find(addr + k);
            uint64_t byte = it == ref.end() ? 0 : it->second;
            v |= byte << (8 * k);
        }
        return v;
    };
    auto pickAddr = [&]() {
        // 96 pages in two clusters kTlbSlots apart, so slots conflict.
        uint64_t pn = r.below(48) + (r.chance(0.5) ? Memory::kTlbSlots : 0);
        uint64_t off = r.chance(0.25)
                           ? Memory::kPageSize - 1 - r.below(8) // straddle
                           : r.below(Memory::kPageSize);
        return pageBase(pn) + off;
    };

    for (int op = 0; op < 20000; ++op) {
        uint64_t addr = pickAddr();
        unsigned len = 1u << r.below(4); // 1, 2, 4 or 8
        switch (r.below(11)) {
          case 0: case 1: case 2: case 3: {
            uint64_t v = r.next();
            switch (len) {
              case 1: m.writeU8(addr, uint8_t(v)); break;
              case 2: m.writeU16(addr, uint16_t(v)); break;
              case 4: m.writeU32(addr, uint32_t(v)); break;
              default: m.writeU64(addr, v); break;
            }
            for (unsigned k = 0; k < len; ++k)
                ref[addr + k] = uint8_t(v >> (8 * k));
            break;
          }
          case 4: case 5: case 6: case 7: {
            uint64_t got = 0;
            switch (len) {
              case 1: got = m.readU8(addr); break;
              case 2: got = m.readU16(addr); break;
              case 4: got = m.readU32(addr); break;
              default: got = m.readU64(addr); break;
            }
            ASSERT_EQ(got, refRead(addr, len))
                << "op " << op << " addr 0x" << std::hex << addr
                << " len " << std::dec << len;
            break;
          }
          case 8: {
            std::vector<uint8_t> buf(1 + r.below(40));
            for (uint8_t &b : buf)
                b = uint8_t(r.next());
            m.writeBlock(addr, buf.data(), buf.size());
            for (size_t k = 0; k < buf.size(); ++k)
                ref[addr + k] = buf[k];
            break;
          }
          case 9: {
            std::vector<uint8_t> buf(1 + r.below(40));
            m.readBlock(addr, buf.data(), buf.size());
            for (size_t k = 0; k < buf.size(); ++k)
                ASSERT_EQ(buf[k], refRead(addr + k, 1)) << "op " << op;
            break;
          }
          default:
            if (r.chance(0.01)) {
                m.clear();
                ref.clear();
            }
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryTlbFuzz, ::testing::Range(0, 4));

// ------------------------------------------------------------- cache

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 1024;
    p.assoc = 2;
    p.lineBytes = 64;
    p.hitLatency = 1;
    return p;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache(), nullptr, 100);
    unsigned first = c.access(0x40, false);
    EXPECT_EQ(first, 101u); // hitLatency + memory
    unsigned second = c.access(0x40, false);
    EXPECT_EQ(second, 1u);
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineSharesTag)
{
    Cache c(smallCache(), nullptr, 100);
    c.access(0x80, false);
    EXPECT_EQ(c.access(0x80 + 63, false), 1u); // same 64B line
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    // 1024/64/2 = 8 sets; three lines mapping to set 0.
    Cache c(smallCache(), nullptr, 100);
    uint64_t setStride = 8 * 64;
    c.access(0 * setStride, false);
    c.access(1 * setStride, false);
    c.access(0 * setStride, false); // touch: 1*stride becomes LRU
    c.access(2 * setStride, false); // evicts 1*stride
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(setStride));
    EXPECT_TRUE(c.probe(2 * setStride));
}

TEST(Cache, WritebackCountsDirtyEvictions)
{
    Cache c(smallCache(), nullptr, 100);
    uint64_t setStride = 8 * 64;
    c.access(0, true); // dirty
    c.access(setStride, false);
    c.access(2 * setStride, false); // evicts dirty line 0
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, DirtyEvictionsPresentWritebacksToNextLevel)
{
    // L1: 1024B/64B/2-way = 8 sets; L2: 4096B holds everything.
    CacheParams l2p = smallCache();
    l2p.sizeBytes = 4096;
    l2p.hitLatency = 10;
    Cache l2(l2p, nullptr, 100);
    Cache l1(smallCache(), &l2, 100);

    // Store-sweep 32 distinct lines: 16 L1 lines of capacity, so the
    // second half of the sweep evicts one dirty line per access.
    for (unsigned i = 0; i < 32; ++i)
        l1.access(uint64_t(i) * 64, true);

    EXPECT_EQ(l1.stats().accesses, 32u);
    EXPECT_EQ(l1.stats().misses, 32u);
    EXPECT_EQ(l1.stats().writes, 32u);
    EXPECT_EQ(l1.stats().writebacks, 16u);
    // L2 sees 32 refills plus 16 incoming writebacks; the writebacks
    // hit (the refill already allocated the line) and are the only
    // write traffic at this level.
    EXPECT_EQ(l2.stats().accesses, 48u);
    EXPECT_EQ(l2.stats().misses, 32u);
    EXPECT_EQ(l2.stats().writes, 16u);
    EXPECT_EQ(l2.stats().writebacksIn, 16u);
}

TEST(Cache, WritebackLatencyStaysOffCriticalPath)
{
    CacheParams l2p = smallCache();
    l2p.sizeBytes = 4096;
    l2p.hitLatency = 10;
    Cache l2(l2p, nullptr, 100);
    Cache l1(smallCache(), &l2, 100);

    uint64_t setStride = 8 * 64;
    l1.access(0, true);                      // dirty
    l1.access(setStride, true);              // dirty, same set
    // Third line in the set: evicts dirty line 0.  The returned
    // latency charges only the demand refill (1 + 10 + 100), not the
    // writeback that the eviction pushes into the L2.
    EXPECT_EQ(l1.access(2 * setStride, true), 1u + 10u + 100u);
    EXPECT_EQ(l1.stats().writebacks, 1u);
    EXPECT_EQ(l2.stats().writebacksIn, 1u);
}

TEST(Cache, FlushResetsLruClock)
{
    // After flush the replacement decisions must replay exactly as on
    // a fresh cache: same victims, same stats deltas.
    auto sweep = [](Cache &c) {
        std::vector<uint64_t> order = {0, 512, 1024, 0, 1536, 512};
        uint64_t misses0 = c.stats().misses;
        for (uint64_t a : order)
            c.access(a, a % 128 == 0);
        return c.stats().misses - misses0;
    };
    Cache fresh(smallCache(), nullptr, 100);
    uint64_t freshMisses = sweep(fresh);

    Cache reused(smallCache(), nullptr, 100);
    sweep(reused);
    reused.flush();
    reused.resetStats();
    uint64_t reusedMisses = sweep(reused);
    EXPECT_EQ(reusedMisses, freshMisses);
}

TEST(Cache, HierarchyChargesLowerLevels)
{
    CacheParams l2p = smallCache();
    l2p.sizeBytes = 4096;
    l2p.hitLatency = 10;
    Cache l2(l2p, nullptr, 100);
    Cache l1(smallCache(), &l2, 100);

    EXPECT_EQ(l1.access(0x40, false), 1u + 10u + 100u); // both miss
    EXPECT_EQ(l1.access(0x40, false), 1u);              // L1 hit
    l1.flush();
    EXPECT_EQ(l1.access(0x40, false), 1u + 10u); // L2 still holds it
}

TEST(Cache, FlushInvalidatesKeepsStats)
{
    Cache c(smallCache(), nullptr, 100);
    c.access(0, false);
    c.flush();
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(Cache, MemLatencyKnobLivesInMachineConfig)
{
    // The 230-cycle memory latency of the baseline POWER5 is a
    // MachineConfig field, not a Cache-constructor default: pin it so a
    // sweep changes one knob and nothing re-introduces a hidden copy.
    EXPECT_EQ(MachineConfig().memLatency, 230u);
    EXPECT_EQ(MachineConfig::power5Baseline().memLatency, 230u);
    EXPECT_EQ(MachineConfig::power5Enhanced().memLatency, 230u);
    // A last-level cache charges exactly that knob on a miss.
    MachineConfig mc;
    Cache solo(smallCache(), nullptr, mc.memLatency);
    EXPECT_EQ(solo.access(0x40, false), 1u + 230u);
}

// --------------------------------------------------- prefetch fills

TEST(CachePrefetch, FillAllocatesOffTheDemandStats)
{
    Cache c(smallCache(), nullptr, 100);
    EXPECT_TRUE(c.prefetchFill(0x40, 10));
    EXPECT_FALSE(c.prefetchFill(0x40, 10)); // already in flight
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_EQ(c.stats().prefetchIssued, 1u);
    EXPECT_EQ(c.stats().accesses, 0u); // fills are not demand traffic
    EXPECT_EQ(c.stats().misses, 0u);
    c.access(0x80, false);
    EXPECT_FALSE(c.prefetchFill(0x80, 10)); // demand-resident line
    EXPECT_EQ(c.stats().prefetchIssued, 1u);
}

TEST(CachePrefetch, DemandHitPaysRemainingInFlightLatency)
{
    Cache c(smallCache(), nullptr, 100);
    c.prefetchFill(0x40, 100); // arrives at 100 + 1 + 100 = 201
    // Demand catches up mid-flight: hit latency plus the 51 cycles
    // still outstanding (partial hit), not the full miss cost.
    EXPECT_EQ(c.access(0x40, false, false, 150), 1u + 51u);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
    EXPECT_EQ(c.stats().misses, 0u);
    // The prefetched flag is consumed: the next touch is a plain hit.
    EXPECT_EQ(c.access(0x40, false, false, 160), 1u);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(CachePrefetch, ArrivedFillHitsAtPlainLatency)
{
    Cache c(smallCache(), nullptr, 100);
    c.prefetchFill(0x40, 0); // arrives at cycle 101
    EXPECT_EQ(c.access(0x40, false, false, 500), 1u);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(CachePrefetch, UntouchedLinesCountUselessOnEviction)
{
    Cache c(smallCache(), nullptr, 100);
    uint64_t setStride = 8 * 64;
    c.prefetchFill(0, 0);
    c.access(setStride, false);
    c.access(2 * setStride, false); // evicts the untouched prefetch
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.stats().prefetchUseless, 1u);
    // A demand-touched prefetch is useful; its later eviction is not
    // counted.
    c.prefetchFill(3 * setStride, 0);
    c.access(3 * setStride, false, false, 500);
    c.access(4 * setStride, false);
    c.access(5 * setStride, false);
    EXPECT_EQ(c.stats().prefetchUseless, 1u);
}

TEST(CachePrefetch, FillEvictionWritesBackDirtyVictim)
{
    CacheParams l2p = smallCache();
    l2p.sizeBytes = 4096;
    l2p.hitLatency = 10;
    Cache l2(l2p, nullptr, 100);
    Cache l1(smallCache(), &l2, 100);

    uint64_t setStride = 8 * 64;
    l1.access(0, true);         // dirty
    l1.access(setStride, true); // dirty, same set
    // The fill evicts the LRU dirty line: the victim's writeback must
    // reach the L2 exactly as a demand eviction's would.
    EXPECT_TRUE(l1.prefetchFill(2 * setStride, 0));
    EXPECT_EQ(l1.stats().writebacks, 1u);
    EXPECT_EQ(l2.stats().writebacksIn, 1u);
    EXPECT_FALSE(l1.probe(0)); // victim gone from L1...
    EXPECT_TRUE(l2.probe(0));  // ...its writeback landed below
    EXPECT_TRUE(l1.probe(2 * setStride));
    // Reloading the victim hits the written-back L2 copy.
    EXPECT_EQ(l1.access(0, false), 1u + 10u);
}

TEST(CachePrefetch, FlushDropsInFlightFills)
{
    Cache c(smallCache(), nullptr, 100);
    c.prefetchFill(0x40, 0);
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.access(0x40, false), 101u); // plain miss, no stale hit
    EXPECT_EQ(c.stats().prefetchHits, 0u);
}

/**
 * flush() drops lines without touching them: a stale dirty line must
 * write nothing back and a stale untouched prefetch must not count as
 * useless when a later fill reuses its way.  Replaying a sweep after
 * the flush yields exactly a fresh hierarchy's stats at both levels.
 */
TEST(Cache, FlushDropsDirtyAndPrefetchedLines)
{
    CacheParams l2p = smallCache();
    l2p.sizeBytes = 4096;
    l2p.hitLatency = 10;
    const uint64_t setStride = 8 * 64;
    auto sweep = [&](Cache &l1) {
        for (uint64_t k = 0; k < 4; ++k) {
            l1.access(k * setStride, k % 2 == 0); // set 0, some dirty
            l1.access(64 + k * setStride, false); // set 1
        }
        l1.prefetchFill(128, 0);                  // set 2
        l1.access(128 + setStride, false);
        l1.access(128 + 2 * setStride, false);    // evicts the prefetch
    };
    auto expectSameStats = [](const CacheStats &a, const CacheStats &b) {
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.misses, b.misses);
        EXPECT_EQ(a.writes, b.writes);
        EXPECT_EQ(a.writebacks, b.writebacks);
        EXPECT_EQ(a.writebacksIn, b.writebacksIn);
        EXPECT_EQ(a.prefetchIssued, b.prefetchIssued);
        EXPECT_EQ(a.prefetchHits, b.prefetchHits);
        EXPECT_EQ(a.prefetchUseless, b.prefetchUseless);
    };

    Cache freshL2(l2p, nullptr, 100);
    Cache freshL1(smallCache(), &freshL2, 100);
    sweep(freshL1);

    Cache l2(l2p, nullptr, 100);
    Cache l1(smallCache(), &l2, 100);
    // Every way of sets 0 and 1 dirty, every way of set 2 prefetched.
    for (uint64_t k = 16; k < 18; ++k) {
        l1.access(k * setStride, true);
        l1.access(64 + k * setStride, true);
        l1.prefetchFill(128 + k * setStride, 0);
    }
    l1.flush();
    l2.flush();
    l1.resetStats();
    l2.resetStats();
    for (uint64_t k = 16; k < 18; ++k)
        EXPECT_FALSE(l1.probe(k * setStride));
    sweep(l1);

    EXPECT_EQ(l1.stats().prefetchUseless, 1u); // the sweep's own one
    expectSameStats(l1.stats(), freshL1.stats());
    expectSameStats(l2.stats(), freshL2.stats());
}

/** Property: miss count equals distinct lines for a streaming sweep. */
class CacheSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheSweep, StreamMissesMatchFootprint)
{
    unsigned assoc = GetParam();
    CacheParams p = smallCache();
    p.assoc = assoc;
    Cache c(p, nullptr, 50);
    // Stream over twice the cache size: every line misses once per
    // pass after capacity is exceeded.
    unsigned lines = 2 * unsigned(p.sizeBytes / p.lineBytes);
    for (unsigned i = 0; i < lines; ++i)
        c.access(uint64_t(i) * p.lineBytes, false);
    EXPECT_EQ(c.stats().misses, lines);
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheSweep, ::testing::Values(1, 2, 4, 8));

/**
 * Test-only reference cache: true LRU kept as a recency-ordered list
 * per set (most recent first), with Cache's allocation, writeback,
 * prefetch and statistics rules but no stamps and no fast path.
 */
class RefCache
{
  public:
    RefCache(const CacheParams &p, RefCache *next, unsigned memLatency)
        : p_(p), next_(next), memLatency_(memLatency),
          sets_(p.sizeBytes / p.lineBytes / p.assoc)
    {
    }

    unsigned
    access(uint64_t addr, bool write, bool writeback = false,
           uint64_t now = 0)
    {
        ++stats.accesses;
        if (write)
            ++stats.writes;
        if (writeback)
            ++stats.writebacksIn;
        std::vector<Line> &set = setOf(addr);
        const uint64_t line = addr / p_.lineBytes;
        for (size_t i = 0; i < set.size(); ++i) {
            if (set[i].line != line)
                continue;
            Line l = set[i];
            set.erase(set.begin() + long(i));
            if (write)
                l.dirty = true;
            unsigned extra = 0;
            if (l.prefetched) {
                ++stats.prefetchHits;
                l.prefetched = false;
                if (l.ready > now)
                    extra = unsigned(l.ready - now);
            }
            set.insert(set.begin(), l);
            return p_.hitLatency + extra;
        }
        ++stats.misses;
        unsigned below = next_ ? next_->access(addr, false) : memLatency_;
        fill(set, line).dirty = write;
        return p_.hitLatency + below;
    }

    bool
    prefetchFill(uint64_t addr, uint64_t now)
    {
        if (probe(addr))
            return false;
        ++stats.prefetchIssued;
        unsigned below = next_ ? next_->access(addr, false) : memLatency_;
        Line &l = fill(setOf(addr), addr / p_.lineBytes);
        l.prefetched = true;
        l.ready = now + p_.hitLatency + below;
        return true;
    }

    bool
    probe(uint64_t addr) const
    {
        const uint64_t line = addr / p_.lineBytes;
        for (const Line &l : sets_[line % sets_.size()]) {
            if (l.line == line)
                return true;
        }
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            set.clear();
    }

    CacheStats stats;

  private:
    struct Line
    {
        uint64_t line = 0;
        bool dirty = false;
        bool prefetched = false;
        uint64_t ready = 0;
    };

    std::vector<Line> &
    setOf(uint64_t addr)
    {
        return sets_[(addr / p_.lineBytes) % sets_.size()];
    }

    /** Evict the LRU line if the set is full; insert @p line as MRU. */
    Line &
    fill(std::vector<Line> &set, uint64_t line)
    {
        if (set.size() == p_.assoc) {
            Line v = set.back();
            set.pop_back();
            if (v.prefetched)
                ++stats.prefetchUseless;
            if (v.dirty) {
                ++stats.writebacks;
                if (next_)
                    next_->access(v.line * p_.lineBytes, true, true);
            }
        }
        set.insert(set.begin(), Line{line});
        return set.front();
    }

    CacheParams p_;
    RefCache *next_;
    unsigned memLatency_;
    std::vector<std::vector<Line>> sets_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const char *level, int op)
{
    SCOPED_TRACE(std::string(level) + " after op " + std::to_string(op));
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.writebacks, want.writebacks);
    EXPECT_EQ(got.writebacksIn, want.writebacksIn);
    EXPECT_EQ(got.prefetchIssued, want.prefetchIssued);
    EXPECT_EQ(got.prefetchHits, want.prefetchHits);
    EXPECT_EQ(got.prefetchUseless, want.prefetchUseless);
}

/**
 * A two-level Cache hierarchy against the true-LRU reference on seeded
 * random streams aimed at the same-line fast path: repeats and writes
 * to the memoised line, set conflicts, writebacks arriving from above,
 * prefetch fills into the memo line's set and flushes.  Every returned
 * latency, every CacheStats field and probe() residency must agree.
 */
class CacheRefFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CacheRefFuzz, MatchesTrueLruReference)
{
    Rng r(0xcac4e000ULL + uint64_t(GetParam()));
    CacheParams p1 = smallCache(); // 8 sets x 2 ways of 64 B
    CacheParams p2 = smallCache(); // 8 sets x 4 ways of 64 B
    p2.sizeBytes = 2048;
    p2.assoc = 4;
    p2.hitLatency = 10;
    const unsigned memLat = 50;
    Cache l2(p2, nullptr, memLat);
    Cache l1(p1, &l2, memLat);
    RefCache r2(p2, nullptr, memLat);
    RefCache r1(p1, &r2, memLat);

    const uint64_t kLine = 64;
    const uint64_t kLines = 48; // overflows both levels
    auto anyAddr = [&]() { return r.below(kLines) * kLine + r.below(kLine); };
    auto sameLine = [&](uint64_t a) { return a / kLine * kLine + r.below(kLine); };
    auto sameSet = [&](uint64_t a, uint64_t sets) {
        uint64_t line = a / kLine % sets + sets * r.below(kLines / sets);
        return line * kLine + r.below(kLine);
    };

    uint64_t last1 = anyAddr(), last2 = anyAddr(), now = 0;
    for (int op = 0; op < 20000; ++op) {
        now += r.below(40);
        uint64_t addr = 0;
        bool write = r.chance(0.4);
        switch (r.below(16)) {
          case 0: case 1: case 2: case 3: case 4: // L1 memo line
            addr = sameLine(last1);
            ASSERT_EQ(l1.access(addr, write, false, now),
                      r1.access(addr, write, false, now)) << "op " << op;
            last1 = addr;
            break;
          case 5: case 6: case 7: case 8: // anywhere: set conflicts
            addr = anyAddr();
            ASSERT_EQ(l1.access(addr, write, false, now),
                      r1.access(addr, write, false, now)) << "op " << op;
            last1 = addr;
            break;
          case 9: // prefetch into the L1 memo line's set
            addr = sameSet(last1, 8);
            ASSERT_EQ(l1.prefetchFill(addr, now), r1.prefetchFill(addr, now))
                << "op " << op;
            break;
          case 10: // prefetch into the L2 memo line's set
            addr = sameSet(last2, 8);
            ASSERT_EQ(l2.prefetchFill(addr, now), r2.prefetchFill(addr, now))
                << "op " << op;
            break;
          case 11: // a writeback arriving at L1 from a level above
            addr = r.chance(0.5) ? sameLine(last1) : anyAddr();
            ASSERT_EQ(l1.access(addr, true, true, now),
                      r1.access(addr, true, true, now)) << "op " << op;
            break;
          case 12: // a writeback arriving at L2, often on its memo line
            addr = r.chance(0.5) ? sameLine(last2) : anyAddr();
            ASSERT_EQ(l2.access(addr, true, true, now),
                      r2.access(addr, true, true, now)) << "op " << op;
            break;
          case 13: case 14: // L2 demand, often its memo line
            addr = r.chance(0.6) ? sameLine(last2) : anyAddr();
            ASSERT_EQ(l2.access(addr, write, false, now),
                      r2.access(addr, write, false, now)) << "op " << op;
            last2 = addr;
            break;
          default:
            addr = last1;
            if (r.chance(0.05)) {
                l1.flush();
                r1.flush();
            }
            if (r.chance(0.02)) {
                l2.flush();
                r2.flush();
            }
            break;
        }
        expectSameStats(l1.stats(), r1.stats, "L1", op);
        expectSameStats(l2.stats(), r2.stats, "L2", op);
        ASSERT_EQ(l1.probe(addr), r1.probe(addr)) << "op " << op;
        ASSERT_EQ(l2.probe(addr), r2.probe(addr)) << "op " << op;
        if (op % 64 == 0) {
            for (uint64_t line = 0; line < kLines; ++line) {
                ASSERT_EQ(l1.probe(line * kLine), r1.probe(line * kLine))
                    << "op " << op << " line " << line;
                ASSERT_EQ(l2.probe(line * kLine), r2.probe(line * kLine))
                    << "op " << op << " line " << line;
            }
        }
        if (::testing::Test::HasFailure())
            return;
    }
    // The stream did reach the fast path, misses and every side event.
    EXPECT_GT(l1.stats().accesses, 2 * l1.stats().misses);
    EXPECT_GT(l1.stats().writebacks, 0u);
    EXPECT_GT(l1.stats().prefetchHits, 0u);
    EXPECT_GT(l1.stats().prefetchUseless, 0u);
    EXPECT_GT(l2.stats().writebacksIn, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheRefFuzz, ::testing::Range(0, 4));

TEST(Cache, CopyKeepsItsOwnSameLineMemo)
{
    // The memo is an index into the cache's own lines, so a copy's
    // fast path marks its own line dirty, not the original's.
    Cache a(smallCache(), nullptr, 100);
    a.access(0x1000, false);
    Cache b = a;
    b.access(0x1008, true);  // same line: fast path on the copy
    a.access(0x1000 + 1024, false); // a: fill the other way of the set
    a.access(0x1000 + 2048, false); // a: evict the (clean) line
    EXPECT_EQ(a.stats().writebacks, 0u);
    b.access(0x1000 + 1024, false);
    b.access(0x1000 + 2048, false); // b: evicts its dirty line
    EXPECT_EQ(b.stats().writebacks, 1u);
}

// -------------------------------------------------------- predictors

TEST(Predictor, BimodalLearnsBias)
{
    BimodalPredictor p(1024);
    for (int i = 0; i < 8; ++i)
        p.update(0x400, true);
    EXPECT_TRUE(p.predict(0x400));
    for (int i = 0; i < 8; ++i)
        p.update(0x400, false);
    EXPECT_FALSE(p.predict(0x400));
}

TEST(Predictor, BimodalIsPerAddress)
{
    BimodalPredictor p(1024);
    for (int i = 0; i < 8; ++i) {
        p.update(0x400, true);
        p.update(0x800, false);
    }
    EXPECT_TRUE(p.predict(0x400));
    EXPECT_FALSE(p.predict(0x800));
}

TEST(Predictor, GshareLearnsAlternation)
{
    // Strict alternation is invisible to bimodal but trivial for a
    // history-indexed table.
    GsharePredictor g(4096, 8);
    BimodalPredictor bi(4096);
    unsigned gOk = 0, bOk = 0;
    bool taken = false;
    for (int i = 0; i < 4000; ++i) {
        taken = !taken;
        if (i > 500) {
            gOk += g.predict(0x40) == taken;
            bOk += bi.predict(0x40) == taken;
        }
        g.update(0x40, taken);
        bi.update(0x40, taken);
    }
    EXPECT_GT(gOk, 3400u); // near perfect
    EXPECT_LT(bOk, 2200u); // near chance
}

TEST(Predictor, TournamentMatchesBestComponent)
{
    TournamentPredictor t(4096, 8);
    bool taken = false;
    unsigned ok = 0;
    for (int i = 0; i < 4000; ++i) {
        taken = !taken; // pattern gshare can learn
        if (i > 1000)
            ok += t.predict(0x40) == taken;
        t.update(0x40, taken);
    }
    EXPECT_GT(ok, 2800u);
}

TEST(Predictor, RandomOutcomesNearChance)
{
    TournamentPredictor t(4096, 11);
    Rng r(5);
    unsigned ok = 0, n = 0;
    for (int i = 0; i < 8000; ++i) {
        bool taken = r.chance(0.5);
        if (i > 1000) {
            ok += t.predict(0x40) == taken;
            ++n;
        }
        t.update(0x40, taken);
    }
    double acc = double(ok) / double(n);
    EXPECT_GT(acc, 0.40);
    EXPECT_LT(acc, 0.62);
}

TEST(Predictor, BiasedBranchAccuracyTracksBias)
{
    TournamentPredictor t(4096, 11);
    Rng r(7);
    unsigned ok = 0, n = 0;
    for (int i = 0; i < 8000; ++i) {
        bool taken = r.chance(0.8);
        if (i > 1000) {
            ok += t.predict(0x80) == taken;
            ++n;
        }
        t.update(0x80, taken);
    }
    double acc = double(ok) / double(n);
    EXPECT_GT(acc, 0.72); // at least the bias
}

TEST(Predictor, GshareFoldsLongHistoryIntoSmallTable)
{
    // historyBits > log2(entries): the history must be folded (XOR of
    // index-width chunks) into the 10-bit index, not assert out.
    GsharePredictor g(1024, 14);

    // A period-12 pattern needs more than 10 bits of history context at
    // a single PC; the folded 14-bit history must still separate the
    // phases well enough to learn it.
    const bool pattern[12] = {true, true,  false, true, false, false,
                              true, false, true,  true, false, false};
    unsigned ok = 0, n = 0;
    for (int i = 0; i < 6000; ++i) {
        bool taken = pattern[i % 12];
        if (i > 2000) {
            ok += g.predict(0x40) == taken;
            ++n;
        }
        g.update(0x40, taken);
    }
    EXPECT_GT(double(ok) / double(n), 0.95);
}

TEST(Predictor, GshareDegenerateSingleEntryTable)
{
    // entries=1 means a zero-bit index; folding must terminate and the
    // predictor degrades to a single shared counter.
    GsharePredictor g(1, 14);
    for (int i = 0; i < 8; ++i)
        g.update(0x40, true);
    EXPECT_TRUE(g.predict(0x1234));
}

/**
 * counter2::update is a next-state table: every state and outcome
 * against the saturating if-chain it replaced.  The tournament
 * selector moves toward the right component only when bimodal and
 * gshare disagree: on a seeded stream a tournament predicts exactly
 * what its two components would under a selector trained by that
 * rule through the if-chain, and both components win the selector
 * over along the way.
 */
TEST(SatCounter, UpdateTableIsTheSaturatingRule)
{
    const auto ifChain = [](uint8_t c, bool up) -> uint8_t {
        if (up) {
            if (c < counter2::kMax)
                ++c;
        } else if (c > 0) {
            --c;
        }
        return c;
    };
    for (uint8_t c = 0; c <= counter2::kMax; ++c) {
        for (bool up : {false, true}) {
            uint8_t u = c;
            counter2::update(u, up);
            EXPECT_EQ(u, ifChain(c, up)) << "state " << int(c) << " up " << up;
            EXPECT_EQ(counter2::next(c, up), ifChain(c, up));
        }
    }

    constexpr unsigned kEntries = 64, kHistory = 5, kSites = 32;
    TournamentPredictor t(kEntries, kHistory);
    BimodalPredictor bi(kEntries);
    GsharePredictor gs(kEntries, kHistory);
    std::vector<uint8_t> sel(kEntries, counter2::kWeaklyNotTaken);
    std::vector<bool> toggle(kSites, false);
    Rng r(0x5e1ec7);
    unsigned usedGshare = 0, moves = 0;
    const int kBranches = 20000;
    for (int n = 0; n < kBranches; ++n) {
        const size_t site = r.below(kSites);
        const uint64_t pc = 0x10000 + 4 * site;
        // A third of the sites alternate (history helps), the rest are
        // biased one way or the other (history adds only noise).
        bool taken;
        if (site % 3 == 0)
            taken = toggle[site] = !toggle[site];
        else
            taken = r.chance(site % 3 == 1 ? 0.9 : 0.15);
        uint8_t &sc = sel[(pc >> 2) & (kEntries - 1)];
        const bool b = bi.predict(pc);
        const bool g = gs.predict(pc);
        const bool useGshare = counter2::high(sc);
        ASSERT_EQ(t.predict(pc), useGshare ? g : b) << "branch " << n;
        usedGshare += useGshare;
        if (b != g) {
            const uint8_t moved = ifChain(sc, g == taken);
            moves += moved != sc;
            sc = moved;
        }
        t.update(pc, taken);
        bi.update(pc, taken);
        gs.update(pc, taken);
    }
    EXPECT_GT(usedGshare, 0u);
    EXPECT_LT(usedGshare, unsigned(kBranches));
    EXPECT_GT(moves, 0u);
}

/**
 * predictUpdate() is predict() then update() in one call: on a seeded
 * random branch stream with table aliasing, an instance driven through
 * predictUpdate and a twin driven through predict+update return the
 * same prediction every time and end in the same state.  Gshare runs
 * with more history bits than index bits (the fold path) too.
 */
TEST(Predictor, PredictUpdateMatchesPredictThenUpdate)
{
    struct Config
    {
        PredictorKind kind;
        unsigned entries, historyBits;
    };
    const Config configs[] = {
        {PredictorKind::AlwaysTaken, 64, 8},
        {PredictorKind::Bimodal, 64, 8},
        {PredictorKind::Gshare, 64, 4},
        {PredictorKind::Gshare, 64, 14}, // 14 history bits > 6 index bits
        {PredictorKind::Gshare, 1, 14},
        {PredictorKind::Tournament, 64, 5},
        {PredictorKind::Tournament, 64, 14},
        {PredictorKind::Tournament, 16384, 11}, // POWER5 baseline
    };
    for (const Config &cfg : configs) {
        auto a = makePredictor(cfg.kind, cfg.entries, cfg.historyBits);
        auto b = makePredictor(cfg.kind, cfg.entries, cfg.historyBits);
        SCOPED_TRACE("kind=" + std::to_string(int(cfg.kind)) +
                     " entries=" + std::to_string(cfg.entries) +
                     " history=" + std::to_string(cfg.historyBits));
        Rng r(0xb7a4c400ULL + cfg.entries + cfg.historyBits);
        // 200 branch sites over 50 KiB of code alias in the small
        // tables; each has its own bias, some alternate.
        std::vector<uint64_t> pcs(200);
        std::vector<double> bias(pcs.size());
        for (size_t i = 0; i < pcs.size(); ++i) {
            pcs[i] = 0x10000 + 4 * r.below(12800);
            bias[i] = r.uniform();
        }
        unsigned agreeTaken = 0;
        for (int n = 0; n < 20000; ++n) {
            size_t i = r.below(pcs.size());
            bool taken = i % 7 == 0 ? (n & 1) != 0 : r.chance(bias[i]);
            bool pa = a->predictUpdate(pcs[i], taken);
            bool pb = b->predict(pcs[i]);
            b->update(pcs[i], taken);
            ASSERT_EQ(pa, pb) << "branch " << n;
            agreeTaken += pa;
        }
        EXPECT_GT(agreeTaken, 0u);
        for (uint64_t pc : pcs)
            EXPECT_EQ(a->predict(pc), b->predict(pc));
    }
}

/**
 * reset() refills the tables in place: every kind, trained on an
 * aliasing random stream and then reset, predicts bit-identically to
 * a fresh instance on a second stream (gshare and tournament also with
 * more history bits than index bits).
 */
TEST(Predictor, ResetPredictsLikeFresh)
{
    struct Config
    {
        PredictorKind kind;
        unsigned entries, historyBits;
    };
    const Config configs[] = {
        {PredictorKind::AlwaysTaken, 64, 8},
        {PredictorKind::Bimodal, 64, 8},
        {PredictorKind::Gshare, 64, 4},
        {PredictorKind::Gshare, 64, 14}, // 14 history bits > 6 index bits
        {PredictorKind::Gshare, 1024, 0},
        {PredictorKind::Gshare, 1024, 29},
        {PredictorKind::Gshare, 16384, 64},
        {PredictorKind::Tournament, 64, 14},
        {PredictorKind::Tournament, 1024, 20},
        {PredictorKind::Tournament, 16384, 11}, // POWER5 baseline
    };
    for (const Config &cfg : configs) {
        auto reused = makePredictor(cfg.kind, cfg.entries, cfg.historyBits);
        SCOPED_TRACE("kind=" + std::to_string(int(cfg.kind)) +
                     " history=" + std::to_string(cfg.historyBits));
        Rng r(0x5e5e7ULL + cfg.entries + cfg.historyBits);
        std::vector<uint64_t> pcs(100);
        for (uint64_t &pc : pcs)
            pc = 0x10000 + 4 * r.below(4096);
        for (int n = 0; n < 5000; ++n)
            reused->update(pcs[r.below(pcs.size())], r.chance(0.7));
        reused->reset();

        auto fresh = makePredictor(cfg.kind, cfg.entries, cfg.historyBits);
        for (uint64_t pc : pcs)
            ASSERT_EQ(reused->predict(pc), fresh->predict(pc));
        for (int n = 0; n < 5000; ++n) {
            uint64_t pc = pcs[r.below(pcs.size())];
            bool taken = r.chance(0.4);
            ASSERT_EQ(reused->predictUpdate(pc, taken),
                      fresh->predictUpdate(pc, taken))
                << "branch " << n;
        }
    }
}

/**
 * The gshare index keeps its folded history incrementally; it must
 * equal the chunk fold of the whole history (XOR of index-width
 * chunks of the low historyBits outcomes) after every outcome of a
 * random stream, for histories shorter, equal to (14 vs 2^14) and
 * longer than the index, none, and the full 64-bit register.
 */
TEST(Predictor, GshareIncrementalFoldMatchesChunkFold)
{
    for (unsigned entries : {1u << 10, 1u << 14}) {
        const unsigned indexBits = floorLog2(entries);
        for (unsigned historyBits : {0u, 11u, 14u, 20u, 29u, 64u}) {
            SCOPED_TRACE("entries=" + std::to_string(entries) +
                         " history=" + std::to_string(historyBits));
            GsharePredictor g(entries, historyBits);
            Rng r(0xf01dULL + entries + historyBits);
            uint64_t ghr = 0;
            for (int n = 0; n < 3000; ++n) {
                uint64_t h = ghr & mask(historyBits);
                for (unsigned used = indexBits; used < historyBits;
                     used += indexBits) {
                    h = (h & mask(indexBits)) ^ (h >> indexBits);
                }
                uint64_t pc = 0x10000 + 4 * r.below(1u << 16);
                ASSERT_EQ(g.index(pc),
                          ((pc >> 2) ^ h) & mask(indexBits))
                    << "outcome " << n;
                bool taken = r.chance(0.6);
                g.update(pc, taken);
                ghr = (ghr << 1) | (taken ? 1 : 0);
            }
        }
    }
}

TEST(Predictor, FactoryProducesAllKinds)
{
    for (PredictorKind k :
         {PredictorKind::AlwaysTaken, PredictorKind::Bimodal,
          PredictorKind::Gshare, PredictorKind::Tournament}) {
        auto p = makePredictor(k, 1024, 8);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->kind(), k);
        p->update(0x10, true);
        (void)p->predict(0x10);
    }
}

// -------------------------------------------------------------- BTAC

BtacParams
testBtac()
{
    BtacParams p;
    p.entries = 4;
    p.scoreBits = 2;
    p.predictThreshold = 2;
    p.resetOnMispredict = false;
    return p;
}

TEST(BtacModel, MissThenAllocateOnTaken)
{
    Btac b(testBtac());
    auto l = b.lookup(0x100);
    EXPECT_FALSE(l.hit);
    b.update(0x100, true, 0x200, l);
    EXPECT_EQ(b.stats().allocations, 1u);
    auto l2 = b.lookup(0x100);
    EXPECT_TRUE(l2.hit);
    EXPECT_FALSE(l2.predict); // initial score 0 < threshold
}

TEST(BtacModel, NotTakenDoesNotAllocate)
{
    Btac b(testBtac());
    auto l = b.lookup(0x100);
    b.update(0x100, false, 0, l);
    EXPECT_EQ(b.stats().allocations, 0u);
}

TEST(BtacModel, ScoreBuildsToPrediction)
{
    Btac b(testBtac());
    for (int i = 0; i < 3; ++i) {
        auto l = b.lookup(0x100);
        b.update(0x100, true, 0x200, l);
    }
    auto l = b.lookup(0x100);
    EXPECT_TRUE(l.predict);
    EXPECT_EQ(l.nia, 0x200u);
}

TEST(BtacModel, WrongTargetDecrementsAndRetrains)
{
    Btac b(testBtac());
    for (int i = 0; i < 4; ++i) {
        auto l = b.lookup(0x100);
        b.update(0x100, true, 0x200, l);
    }
    // Target changes: confidence decays, then the nia retrains.
    for (int i = 0; i < 4; ++i) {
        auto l = b.lookup(0x100);
        b.update(0x100, true, 0x300, l);
    }
    for (int i = 0; i < 3; ++i) {
        auto l = b.lookup(0x100);
        b.update(0x100, true, 0x300, l);
    }
    auto l = b.lookup(0x100);
    EXPECT_TRUE(l.predict);
    EXPECT_EQ(l.nia, 0x300u);
}

TEST(BtacModel, ScoreBasedReplacementKeepsConfident)
{
    Btac b(testBtac());
    // Four stable branches fill the table with high scores.
    for (int i = 0; i < 4; ++i) {
        for (int k = 0; k < 4; ++k) {
            uint64_t pc = 0x1000 + 16 * unsigned(i);
            auto l = b.lookup(pc);
            b.update(pc, true, pc + 64, l);
        }
    }
    // A fifth taken branch evicts the lowest-score entry (all equal
    // here, so someone goes) but repeated churn must not evict the
    // re-confirmed entries.
    for (int n = 0; n < 3; ++n) {
        uint64_t churn = 0x9000 + 16 * unsigned(n);
        auto l = b.lookup(churn);
        b.update(churn, true, churn + 64, l);
        for (int i = 0; i < 4; ++i) {
            uint64_t pc = 0x1000 + 16 * unsigned(i);
            auto l2 = b.lookup(pc);
            b.update(pc, true, pc + 64, l2);
        }
    }
    unsigned present = 0;
    for (int i = 0; i < 4; ++i)
        present += b.lookup(0x1000 + 16 * unsigned(i)).hit;
    EXPECT_GE(present, 3u);
}

TEST(BtacModel, ResetOnMispredictForgoesHardBranches)
{
    BtacParams p;
    p.entries = 4;
    p.scoreBits = 3;
    p.predictThreshold = 7;
    p.resetOnMispredict = true;
    Btac b(p);
    Rng r(11);
    // A 60%-taken branch with a stable target: with the sticky policy
    // the BTAC should almost never commit to predicting it.
    for (int i = 0; i < 4000; ++i) {
        auto l = b.lookup(0x500);
        b.update(0x500, r.chance(0.6), 0x900, l);
    }
    double used = double(b.stats().predictions) /
                  double(b.stats().lookups);
    EXPECT_LT(used, 0.10);
}

TEST(BtacModel, StatsMispredictRate)
{
    Btac b(testBtac());
    for (int i = 0; i < 10; ++i) {
        auto l = b.lookup(0x100);
        b.update(0x100, true, 0x200, l);
    }
    // One wrong direction while predicting.
    auto l = b.lookup(0x100);
    EXPECT_TRUE(l.predict);
    b.update(0x100, false, 0, l);
    EXPECT_EQ(b.stats().mispredicts, 1u);
    EXPECT_GT(b.stats().correct, 0u);
    EXPECT_GT(b.stats().mispredictRate(), 0.0);
    EXPECT_LT(b.stats().mispredictRate(), 0.5);
}

TEST(BtacModel, ResetMatchesFresh)
{
    Btac reused(testBtac());
    for (uint64_t pc = 0x100; pc < 0x120; pc += 4) {
        for (int i = 0; i < 3; ++i) {
            auto l = reused.lookup(pc);
            reused.update(pc, true, pc + 0x40, l);
        }
    }
    reused.reset();
    EXPECT_EQ(reused.stats().lookups, 0u);
    EXPECT_EQ(reused.stats().allocations, 0u);

    Btac fresh(testBtac());
    for (int i = 0; i < 12; ++i) {
        uint64_t pc = 0x100 + 4 * uint64_t(i % 5);
        bool taken = i % 3 != 0;
        auto a = reused.lookup(pc);
        auto b = fresh.lookup(pc);
        EXPECT_EQ(a.hit, b.hit) << i;
        EXPECT_EQ(a.predict, b.predict) << i;
        EXPECT_EQ(a.nia, b.nia) << i;
        reused.update(pc, taken, pc + 0x40, a);
        fresh.update(pc, taken, pc + 0x40, b);
    }
    EXPECT_EQ(reused.stats().hits, fresh.stats().hits);
    EXPECT_EQ(reused.stats().predictions, fresh.stats().predictions);
    EXPECT_EQ(reused.stats().allocations, fresh.stats().allocations);
}

} // namespace
} // namespace bp5::sim
