// Counting replacements for the global operator new/delete family (see
// alloc_hook.h). Every throwing, nothrow, and aligned form funnels through
// one counting malloc wrapper; sized and aligned deletes all forward to
// free, matching what the allocation forms hand out.
#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* CountedAllocAligned(std::size_t size, std::size_t align) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = align;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

[[noreturn]] void ThrowBadAlloc() { throw std::bad_alloc(); }

void* AllocOrThrow(std::size_t size) {
  for (;;) {
    if (void* p = CountedAlloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) ThrowBadAlloc();
    handler();
  }
}

void* AllocAlignedOrThrow(std::size_t size, std::size_t align) {
  for (;;) {
    if (void* p = CountedAllocAligned(size, align)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) ThrowBadAlloc();
    handler();
  }
}

}  // namespace

namespace nec::test {

std::uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace nec::test

void* operator new(std::size_t size) { return AllocOrThrow(size); }
void* operator new[](std::size_t size) { return AllocOrThrow(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocAlignedOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocAlignedOrThrow(size, static_cast<std::size_t>(align));
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
