// Process-wide heap allocation counter for steady-state audits.
//
// Linking tests/alloc_hook.cpp into a binary replaces the global operator
// new/delete family with malloc/free wrappers that count every allocation.
// The count is the audit primitive behind the zero-allocation hot-path
// contract (DESIGN.md §5i): warm up the per-chunk pipeline, snapshot
// AllocCount(), run N chunks, and assert the delta is zero.
//
// AllocBytes() sums the requested sizes, for audits of how much a phase
// allocates rather than how often (test_hot_path's per-session scratch
// check).
//
// The counters are relaxed atomics, exact whenever the audited phase is
// single-threaded or joined before it is read (test_hot_path's runtime
// case reads them after SessionManager::Drain).
#pragma once

#include <cstdint>

namespace nec::test {

/// Number of operator-new calls (all variants) since process start.
std::uint64_t AllocCount();

/// Bytes requested by those calls since process start.
std::uint64_t AllocBytes();

}  // namespace nec::test
