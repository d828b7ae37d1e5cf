/**
 * @file
 * Heap-allocation counter for allocation-gate tests. Linking
 * alloc_counter.cc replaces the global operator new of the whole
 * executable with a counting one, so only dedicated executables link
 * it.
 */

#ifndef CHECKIN_TESTS_ALLOC_COUNTER_H_
#define CHECKIN_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace checkin::test {

/** Global operator new calls since process start. */
std::uint64_t heapAllocations();

} // namespace checkin::test

#endif // CHECKIN_TESTS_ALLOC_COUNTER_H_
