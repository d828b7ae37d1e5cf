/**
 * @file
 * Fixed-size array of trivially copyable elements over a private
 * anonymous memory mapping.
 *
 * The device model keeps state per physical slot, page and LPN: tens
 * of MiB for a 128 MiB device, of which a run touches only the part
 * it writes. A mapping starts as all-zero bytes without touching any
 * memory, so construction costs nothing and the resident set follows
 * the pages a run uses, not the device size. The memory never passes
 * through malloc, so the heap layout (and glibc's trimming of it)
 * does not depend on the device geometry.
 *
 * Element types choose their encoding so that all-zero bytes is the
 * state nothing has to fill in.
 */

#ifndef CHECKIN_SIM_ZEROED_ARRAY_H_
#define CHECKIN_SIM_ZEROED_ARRAY_H_

#include <sys/mman.h>

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace checkin {

template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedArray holds raw bytes");

  public:
    ZeroedArray() = default;

    /** @p n elements, every byte zero. @throws std::bad_alloc. */
    explicit ZeroedArray(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
        void *p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
    }

    ~ZeroedArray() { release(); }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    ZeroedArray(ZeroedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    std::size_t size() const { return size_; }

    T &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return data_[i];
    }

    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return data_[i];
    }

    /** Every byte back to zero; the touched memory is returned. */
    void
    zero()
    {
        if (data_ == nullptr)
            return;
#if defined(__linux__)
        // Dropped private anonymous pages read back as zeros.
        if (::madvise(data_, bytes(), MADV_DONTNEED) == 0)
            return;
#endif
        std::memset(static_cast<void *>(data_), 0, bytes());
    }

  private:
    std::size_t bytes() const { return size_ * sizeof(T); }

    void
    release()
    {
        if (data_ != nullptr)
            ::munmap(data_, bytes());
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace checkin

#endif // CHECKIN_SIM_ZEROED_ARRAY_H_
