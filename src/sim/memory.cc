#include "sim/memory.h"

#include <algorithm>
#include <cstring>

namespace bp5::sim {

uint8_t *
Memory::tlbFill(uint64_t pn, bool allocate) const
{
    auto it = pages_.find(pn);
    if (it == pages_.end()) {
        if (!allocate)
            return nullptr; // absence is never cached
        it = pages_.emplace(pn, Page(kPageSize, 0)).first;
    }
    TlbEntry &e = tlb_[pn & (kTlbSlots - 1)];
    e.pageNum = pn;
    e.data = it->second.data();
    return e.data;
}

void
Memory::writeBlock(uint64_t addr, const void *src, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(src);
    while (len > 0) {
        size_t chunk = std::min<size_t>(len, kPageSize - pageOff(addr));
        std::memcpy(writePtr(addr, chunk), p, chunk);
        addr += chunk;
        p += chunk;
        len -= chunk;
    }
}

void
Memory::readBlock(uint64_t addr, void *dst, size_t len) const
{
    uint8_t *p = static_cast<uint8_t *>(dst);
    while (len > 0) {
        size_t chunk = std::min<size_t>(len, kPageSize - pageOff(addr));
        if (const uint8_t *src = readPtr(addr, chunk))
            std::memcpy(p, src, chunk);
        else
            std::memset(p, 0, chunk);
        addr += chunk;
        p += chunk;
        len -= chunk;
    }
}

} // namespace bp5::sim
