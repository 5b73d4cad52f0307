// Process-wide heap allocation counter, for the zero-allocation gates on the
// warm paths. The counting operator new/delete overrides live in
// alloc_counter.cpp, which is compiled ONLY into the test executables that
// list it as a source (test_warm_path, test_net_messages,
// test_trace_crafted) — the library targets are never built with the
// override, so production binaries keep the system allocator untouched.
#pragma once

#include <cstddef>

namespace slmob::bench {

// Number of operator-new calls (scalar + array + aligned) since process
// start, all threads combined.
std::size_t allocation_count();
// Bytes those calls asked for, all threads combined.
std::size_t allocated_bytes();

}  // namespace slmob::bench
