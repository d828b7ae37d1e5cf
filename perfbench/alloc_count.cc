/**
 * @file
 * Replacement global allocation functions that count every heap
 * allocation of the benchmark process (sim.allocs_per_op,
 * engine.allocs_per_call). The count is one relaxed atomic add, paid
 * in traced and untraced runs alike.
 */

#include <cstdlib>
#include <new>

#include "driver.h"

namespace {

void *
countedAlloc(std::size_t size)
{
    perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    return std::malloc(size);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept { std::free(p); }
