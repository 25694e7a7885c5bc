#include "support/zero_page_array.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

namespace bp5::support {

namespace {

size_t
pageSize()
{
    static const size_t page = size_t(sysconf(_SC_PAGESIZE));
    return page;
}

/** @p bytes rounded up to whole pages. */
size_t
pageSpan(size_t bytes)
{
    const size_t page = pageSize();
    return (bytes + page - 1) / page * page;
}

} // namespace

void *
mapZeroPages(size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    if (bytes > SIZE_MAX - 2 * pageSize())
        throw std::bad_alloc(); // the span and its guard page overflow
    const size_t span = pageSpan(bytes);
    void *base = mmap(nullptr, span + pageSize(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    char *guard = static_cast<char *>(base) + span;
    if (mprotect(guard, pageSize(), PROT_NONE) != 0) {
        munmap(base, span + pageSize());
        throw std::bad_alloc();
    }
#ifdef MADV_NOHUGEPAGE
    // A transparent huge page would make a whole 2 MiB resident on the
    // first write; advisory, so a refusal changes nothing else.
    madvise(base, span, MADV_NOHUGEPAGE);
#endif
    // End the array at the guard page, so even an overrun of one byte
    // faults.  bytes is a multiple of the element size, so the start
    // keeps the element's alignment.
    return guard - bytes;
}

void
unmapZeroPages(void *p, size_t bytes)
{
    if (!p)
        return;
    const size_t span = pageSpan(bytes);
    munmap(static_cast<char *>(p) + bytes - span, span + pageSize());
}

} // namespace bp5::support
