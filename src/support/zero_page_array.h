/**
 * @file
 * A fixed-size array on demand-zero pages: a fresh anonymous mapping,
 * so a page of it becomes resident only when first written, and
 * building the array writes nothing.  It is the one allocation path of
 * the simulator's large per-machine tables (the cache tag arrays and
 * the classic store table): a simulated kernel touches a sliver of a
 * 2 MiB L2, and a pooled machine should pay host memory for that
 * sliver only (DESIGN.md §4.13, "Demand-zero tables").
 *
 * The element type must be trivially copyable, and its all-zero bytes
 * must be its default (empty) value: a new array reads as n
 * value-initialized elements without anyone storing them.  The check
 * is a compile-time one (zeroIsDefault).
 *
 * The array ends at a PROT_NONE guard page.  The mapping is invisible
 * to AddressSanitizer's heap redzones, so an overrun faults instead,
 * under every build.  Copies are deep (and resident in full); a move
 * steals the mapping and leaves the source empty.
 */

#ifndef BIOPERF5_SUPPORT_ZERO_PAGE_ARRAY_H
#define BIOPERF5_SUPPORT_ZERO_PAGE_ARRAY_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bp5::support {

/** True when @p T read from all-zero bytes equals a value-initialized T. */
template <typename T>
constexpr bool
zeroIsDefault()
{
    return std::bit_cast<T>(std::array<unsigned char, sizeof(T)>{}) == T();
}

/**
 * @p bytes of zero-filled memory on fresh pages, ending at a guard
 * page; std::bad_alloc if the mapping fails.  Null for 0 bytes.
 */
void *mapZeroPages(size_t bytes);

/** Release a mapZeroPages(@p bytes) result (null is a no-op). */
void unmapZeroPages(void *p, size_t bytes);

/** The array; see the file comment. */
template <typename T>
class ZeroPageArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroPageArray holds trivially copyable elements");

  public:
    ZeroPageArray() = default;

    /** @p n elements, all T(), none of them resident yet. */
    explicit ZeroPageArray(size_t n)
        : data_(static_cast<T *>(mapZeroPages(bytesFor(n)))), size_(n)
    {
        // Here, not at class scope: a nested T's member initializers
        // are not visible until its enclosing class is complete.
        static_assert(zeroIsDefault<T>(),
                      "ZeroPageArray needs a T whose all-zero bytes are T()");
    }

    ZeroPageArray(const ZeroPageArray &other) : ZeroPageArray(other.size_)
    {
        if (size_)
            std::memcpy(data_, other.data_, size_ * sizeof(T));
    }

    ZeroPageArray(ZeroPageArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {}

    /** Copy or move assignment (the argument is built by either). */
    ZeroPageArray &
    operator=(ZeroPageArray other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        return *this;
    }

    ~ZeroPageArray() { unmapZeroPages(data_, size_ * sizeof(T)); }

    size_t size() const { return size_; }
    T *data() { return data_; }
    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }

    /** Store @p v in every element (makes every page resident). */
    void fill(const T &v) { std::fill(begin(), end(), v); }

  private:
    static size_t
    bytesFor(size_t n)
    {
        if (n > SIZE_MAX / sizeof(T))
            throw std::bad_array_new_length();
        return n * sizeof(T);
    }

    T *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace bp5::support

#endif // BIOPERF5_SUPPORT_ZERO_PAGE_ARRAY_H
