/**
 * @file
 * Sparse flat physical memory for the MiniPOWER machine.  Backed by
 * 4 KiB pages allocated on first touch; all accesses are little-endian.
 *
 * Every access translates its page number through a direct-mapped
 * software TLB of kTlbSlots {pageNum, data*} entries indexed by
 * pageNum & (kTlbSlots - 1) and shared by reads and writes: the DP
 * kernels stream over a handful of arrays at once (sequences, score
 * matrix, DP rows, stack), which a handful of resident translations
 * cover without touching the page table.  A miss walks the page table
 * (an unordered_map that owns the pages) and fills the slot.  Page
 * buffers are heap-allocated vectors, so cached pointers stay valid
 * across page-table rehashes; reads of absent pages return zero
 * without allocating (and are never cached, so a later write is
 * observed); clear() invalidates every slot.  A slot that holds a page
 * number therefore always holds that page's buffer, so the inline fast
 * path of a small access (residentPtr) is one page-bound check and one
 * tag compare; a TLB miss or a page-crossing access goes to the
 * out-of-line block routines.
 *
 * Not copyable: a copy would carry TLB pointers into the source's
 * pages.
 */

#ifndef BIOPERF5_SIM_MEMORY_H
#define BIOPERF5_SIM_MEMORY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace bp5::sim {

/** Byte-addressed sparse memory. */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr uint64_t kPageSize = 1ULL << kPageShift;
    /** Software-TLB slots (a power of two). */
    static constexpr size_t kTlbSlots = 64;

    Memory() = default;
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    uint8_t readU8(uint64_t addr) const { return readSmall<uint8_t>(addr); }
    uint16_t readU16(uint64_t addr) const { return readSmall<uint16_t>(addr); }
    uint32_t readU32(uint64_t addr) const { return readSmall<uint32_t>(addr); }
    uint64_t readU64(uint64_t addr) const { return readSmall<uint64_t>(addr); }

    void writeU8(uint64_t addr, uint8_t v) { writeSmall(addr, v); }
    void writeU16(uint64_t addr, uint16_t v) { writeSmall(addr, v); }
    void writeU32(uint64_t addr, uint32_t v) { writeSmall(addr, v); }
    void writeU64(uint64_t addr, uint64_t v) { writeSmall(addr, v); }

    /**
     * The fast path of every small access: a pointer to
     * [addr, addr+len) when the span lies in one page whose translation
     * is resident in the TLB, else nullptr (a TLB miss or a
     * page-crossing span; neither is an error: the read and write
     * calls handle both).  Touches no page table and fills no slot.
     * @p len is at most kPageSize.
     */
    const uint8_t *
    residentPtr(uint64_t addr, size_t len) const
    {
        return resident(addr, len);
    }

    /** Writable form of residentPtr(), for stores (the TLB caches
     *  only allocated pages). */
    uint8_t *
    residentPtr(uint64_t addr, size_t len)
    {
        return resident(addr, len);
    }

    /** Bulk copy into memory. */
    void writeBlock(uint64_t addr, const void *src, size_t len);

    /** Bulk copy out of memory. */
    void readBlock(uint64_t addr, void *dst, size_t len) const;

    /** Number of resident pages (for tests / footprint reports). */
    size_t residentPages() const { return pages_.size(); }

    /** Drop all contents and every cached translation. */
    void
    clear()
    {
        pages_.clear();
        tlb_.fill(TlbEntry());
    }

  private:
    using Page = std::vector<uint8_t>;

    struct TlbEntry
    {
        uint64_t pageNum = ~0ULL; ///< never a real page number (< 2^52)
        uint8_t *data = nullptr;
    };

    static_assert((kTlbSlots & (kTlbSlots - 1)) == 0,
                  "TLB slot count must be a power of 2");

    static constexpr uint64_t pageOff(uint64_t a)
    {
        return a & (kPageSize - 1);
    }

    /** Body of both residentPtr() forms. */
    uint8_t *
    resident(uint64_t addr, size_t len) const
    {
        const uint64_t off = pageOff(addr);
        const uint64_t pn = addr >> kPageShift;
        const TlbEntry &e = tlb_[pn & (kTlbSlots - 1)];
        if (off > kPageSize - len || e.pageNum != pn)
            return nullptr;
        if (e.data == nullptr)
            __builtin_unreachable(); // a tagged slot holds its page
        return e.data + off;
    }

    /** TLB miss: find page @p pn (allocating it when @p allocate) and
     *  fill its slot.  Returns nullptr, caching nothing, when the page
     *  is absent and not allocated. */
    uint8_t *tlbFill(uint64_t pn, bool allocate) const;

    /** Pointer into the page holding [addr, addr+len), or nullptr if
     *  the page is absent or the span crosses a page boundary. */
    const uint8_t *
    readPtr(uint64_t addr, size_t len) const
    {
        if (const uint8_t *p = residentPtr(addr, len))
            return p;
        if (pageOff(addr) + len > kPageSize)
            return nullptr;
        const uint8_t *data = tlbFill(addr >> kPageShift, false);
        return data ? data + pageOff(addr) : nullptr;
    }

    /** Writable pointer for [addr, addr+len), allocating the page;
     *  nullptr only when the span crosses a page boundary. */
    uint8_t *
    writePtr(uint64_t addr, size_t len)
    {
        if (uint8_t *p = residentPtr(addr, len))
            return p;
        if (pageOff(addr) + len > kPageSize)
            return nullptr;
        return tlbFill(addr >> kPageShift, true) + pageOff(addr);
    }

    // A TLB miss or a page-crossing span takes the out-of-line block
    // routine, which fills the slot (or reads zeros from an absent page).
    template <typename T>
    T
    readSmall(uint64_t addr) const
    {
        T v;
        if (const uint8_t *p = residentPtr(addr, sizeof(T)))
            std::memcpy(&v, p, sizeof(T));
        else
            readBlock(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeSmall(uint64_t addr, T v)
    {
        if (uint8_t *p = residentPtr(addr, sizeof(T)))
            std::memcpy(p, &v, sizeof(T));
        else
            writeBlock(addr, &v, sizeof(T));
    }

    // Reads fill TLB slots, so both are mutable.
    mutable std::unordered_map<uint64_t, Page> pages_;
    mutable std::array<TlbEntry, kTlbSlots> tlb_{};
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_MEMORY_H
