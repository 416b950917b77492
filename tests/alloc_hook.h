// Process-wide heap allocation counter for steady-state audits.
//
// Linking tests/alloc_hook.cpp into a binary replaces the global operator
// new/delete family with malloc/free wrappers that count every allocation.
// The count is the audit primitive behind the zero-allocation hot-path
// contract (DESIGN.md §5i): warm up the per-chunk pipeline, snapshot
// AllocCount(), run N chunks, and assert the delta is zero.
//
// The counter is a relaxed atomic, exact whenever the audited phase is
// single-threaded (test_hot_path runs both arms on the test's own thread).
#pragma once

#include <cstdint>

namespace nec::test {

/// Number of operator-new calls (all variants) since process start.
std::uint64_t AllocCount();

}  // namespace nec::test
