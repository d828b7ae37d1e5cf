#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

// Kept in its own translation unit so the compiler never pairs an
// inlined replacement operator new with a visible std::free.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace checkin::test {

std::uint64_t
heapAllocations()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace checkin::test
