// Tests for the nec::core hot-path memory primitives (DESIGN.md §5i):
// bump Arena + RAII ArenaScope, size-classed Pool, inline Shape,
// non-owning TensorView, and the nn::Tensor arena-backed storage mode —
// including the bit-exactness contract between arena-backed and owning
// inference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/memory.h"
#include "core/selector.h"
#include "nn/tensor.h"

namespace nec::core {
namespace {

// ------------------------------------------------------------------ Arena

TEST(Arena, BumpAllocatesDistinctAlignedStorage) {
  Arena arena;
  float* a = arena.AllocateArray<float>(100);
  float* b = arena.AllocateArray<float>(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  // Distinct live allocations must not overlap.
  a[99] = 1.0f;
  b[0] = 2.0f;
  EXPECT_EQ(a[99], 1.0f);
}

TEST(Arena, RespectsRequestedAlignment) {
  Arena arena;
  arena.Allocate(1, 1);  // misalign the bump pointer
  void* p = arena.Allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(Arena, ResetReusesStorageWithoutGrowing) {
  Arena arena(1024);
  float* first = arena.AllocateArray<float>(64);
  const std::size_t grown = arena.grow_count();
  const std::size_t cap = arena.Capacity();
  arena.Reset();
  // Same request replays into the same storage: no new blocks, and the
  // bump hands back the very same bytes.
  float* again = arena.AllocateArray<float>(64);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.grow_count(), grown);
  EXPECT_EQ(arena.Capacity(), cap);
}

TEST(Arena, RewindToMarkReleasesOnlyTail) {
  Arena arena;
  float* keep = arena.AllocateArray<float>(10);
  keep[0] = 42.0f;
  const Arena::Mark mark = arena.Position();
  const std::size_t in_use_at_mark = arena.InUse();
  arena.AllocateArray<float>(1000);
  EXPECT_GT(arena.InUse(), in_use_at_mark);
  arena.Rewind(mark);
  EXPECT_EQ(arena.InUse(), in_use_at_mark);
  EXPECT_EQ(keep[0], 42.0f);  // storage before the mark is untouched
}

TEST(Arena, GrowsAcrossBlocksForLargeRequests) {
  Arena arena(256);
  // Far larger than the initial block: must chain new blocks, not fail.
  float* big = arena.AllocateArray<float>(100000);
  ASSERT_NE(big, nullptr);
  big[0] = 1.0f;
  big[99999] = 2.0f;
  EXPECT_GE(arena.Capacity(), 100000 * sizeof(float));
  EXPECT_GT(arena.grow_count(), 0u);
  // After Reset, a steady-state replay of the same request needs no growth.
  arena.Reset();
  const std::uint64_t grown = arena.grow_count();
  arena.AllocateArray<float>(100000);
  EXPECT_EQ(arena.grow_count(), grown);
}

TEST(Arena, HighWaterTracksPeak) {
  Arena arena;
  arena.AllocateArray<float>(512);
  const std::size_t peak = arena.high_water_bytes();
  EXPECT_GE(peak, 512 * sizeof(float));
  arena.Reset();
  arena.AllocateArray<float>(8);
  EXPECT_GE(arena.high_water_bytes(), peak);  // monotone
}

// ------------------------------------------------------------- ArenaScope

TEST(ArenaScope, PublishesAndRestoresAmbientArena) {
  EXPECT_EQ(ArenaScope::Current(), nullptr);
  Arena arena;
  {
    ArenaScope scope(arena);
    EXPECT_EQ(ArenaScope::Current(), &arena);
  }
  EXPECT_EQ(ArenaScope::Current(), nullptr);
}

TEST(ArenaScope, NestedScopesRestorePrevious) {
  Arena outer_arena, inner_arena;
  ArenaScope outer(outer_arena);
  {
    ArenaScope inner(inner_arena);
    EXPECT_EQ(ArenaScope::Current(), &inner_arena);
  }
  EXPECT_EQ(ArenaScope::Current(), &outer_arena);
}

TEST(ArenaScope, RewindsOnNormalExit) {
  Arena arena;
  arena.AllocateArray<float>(16);
  const std::size_t before = arena.InUse();
  {
    ArenaScope scope(arena);
    arena.AllocateArray<float>(4096);
    EXPECT_GT(arena.InUse(), before);
  }
  EXPECT_EQ(arena.InUse(), before);
}

TEST(ArenaScope, RewindsDuringExceptionUnwind) {
  // A faulted chunk must not leak arena space or poison the strand's next
  // chunk: the scope's destructor rewinds during unwind.
  Arena arena;
  const std::size_t before = arena.InUse();
  EXPECT_THROW(
      {
        ArenaScope scope(arena);
        arena.AllocateArray<float>(2048);
        throw std::runtime_error("chunk fault");
      },
      std::runtime_error);
  EXPECT_EQ(arena.InUse(), before);
  EXPECT_EQ(ArenaScope::Current(), nullptr);
}

// ------------------------------------------------------------------- Pool

TEST(Pool, AcquireSizesAndClassCapacity) {
  Pool pool;
  std::vector<float> buf = pool.Acquire(300);
  EXPECT_EQ(buf.size(), 300u);
  EXPECT_GE(buf.capacity(), 512u);  // next pow2 class
}

TEST(Pool, RecyclesReleasedBufferWithoutZeroing) {
  Pool pool;
  std::vector<float> buf = pool.Acquire(1000);
  const float* storage = buf.data();
  buf[0] = 123.0f;
  buf[999] = 456.0f;
  pool.Release(std::move(buf));

  // Same class: must get the SAME storage back, stale contents retained —
  // Acquire does not zero (consumers overwrite fully; that is the
  // performance contract this test pins down).
  std::vector<float> again = pool.Acquire(1000);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(again[0], 123.0f);
  EXPECT_EQ(again[999], 456.0f);

  const Pool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.discards, 0u);
}

TEST(Pool, GrowthBeyondRecycledSizeIsZeroFilled) {
  Pool pool;
  std::vector<float> buf = pool.Acquire(100);
  for (std::size_t i = 0; i < 100; ++i) buf[i] = 7.0f;
  pool.Release(std::move(buf));
  // Larger request in the same class: the resize's growth region is
  // value-initialized by vector semantics.
  std::vector<float> bigger = pool.Acquire(200);
  EXPECT_EQ(bigger[0], 7.0f);  // stale, recycled
  for (std::size_t i = 100; i < 200; ++i) ASSERT_EQ(bigger[i], 0.0f);
}

TEST(Pool, FullBinDiscards) {
  Pool pool(/*max_per_class=*/1);
  std::vector<float> a = pool.Acquire(300);
  std::vector<float> b = pool.Acquire(300);  // both live at once
  pool.Release(std::move(a));
  pool.Release(std::move(b));  // bin already holds one: dropped
  const Pool::Stats s = pool.stats();
  EXPECT_EQ(s.releases, 2u);
  EXPECT_EQ(s.discards, 1u);
}

// ------------------------------------------------------------------ Shape

TEST(Shape, InlineDimsAndNumel) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(Shape{}.numel(), 0u);
  const std::vector<std::size_t> v{5, 6};
  const Shape from_vec = v;
  EXPECT_EQ(from_vec.numel(), 30u);
  EXPECT_TRUE(from_vec == (Shape{5, 6}));
  EXPECT_TRUE(from_vec != s);
}

TEST(Shape, RejectsRankAboveMax) {
  EXPECT_THROW((Shape{1, 2, 3, 4, 5}), CheckError);
}

// ------------------------------------------------------------- TensorView

TEST(TensorView, AliasesStorage) {
  std::vector<float> storage(24, 0.0f);
  TensorView view(storage.data(), Shape{2, 3, 4});
  view.At3(1, 2, 3) = 9.0f;
  EXPECT_EQ(storage[(1 * 3 + 2) * 4 + 3], 9.0f);
  storage[0] = 5.0f;
  EXPECT_EQ(view[0], 5.0f);
}

TEST(TensorView, SubSlicesLeadingDimension) {
  std::vector<float> storage(24);
  for (std::size_t i = 0; i < 24; ++i) storage[i] = static_cast<float>(i);
  TensorView batch(storage.data(), Shape{2, 3, 4});
  TensorView item1 = batch.Sub(1);
  EXPECT_EQ(item1.rank(), 2u);
  EXPECT_EQ(item1.dim(0), 3u);
  EXPECT_EQ(item1.dim(1), 4u);
  EXPECT_EQ(item1.data(), storage.data() + 12);
  // Writes through the sub-view land in the parent storage (gather/scatter
  // batch assembly relies on this aliasing).
  item1.At(2, 3) = -1.0f;
  EXPECT_EQ(storage[23], -1.0f);
}

#ifndef NDEBUG
TEST(TensorView, DebugRejectsOutOfBoundsAndRankMisuse) {
  std::vector<float> storage(6);
  TensorView view(storage.data(), Shape{2, 3});
  EXPECT_THROW(view[6], CheckError);
  EXPECT_THROW(view.At(2, 0), CheckError);
  EXPECT_THROW(view.At(0, 3), CheckError);
  EXPECT_THROW(view.At3(0, 0, 0), CheckError);  // rank-2 view
  EXPECT_THROW(view.Sub(2), CheckError);
  TensorView flat(storage.data(), Shape{6});
  EXPECT_THROW(flat.Sub(0), CheckError);  // rank-1 has no sub-slice
}
#endif

// ------------------------------------------- Tensor arena-backed storage

TEST(TensorArena, ScopeSelectsArenaStorageAndZeroFills) {
  Arena arena;
  ArenaScope scope(arena);
  nn::Tensor t({4, 8});
  EXPECT_TRUE(t.arena_backed());
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t[i], 0.0f);
  EXPECT_GE(arena.InUse(), t.numel() * sizeof(float));
}

TEST(TensorArena, OutsideScopeOwnsStorage) {
  nn::Tensor t({4});
  EXPECT_FALSE(t.arena_backed());
  EXPECT_EQ(t.vec().size(), 4u);  // owning escape hatch works
}

TEST(TensorArena, VecThrowsOnArenaBackedStorage) {
  Arena arena;
  ArenaScope scope(arena);
  nn::Tensor t({4});
  EXPECT_THROW(t.vec(), CheckError);
}

TEST(TensorArena, CopyUnderScopeTakesArenaStorage) {
  nn::Tensor heap_tensor({8});
  heap_tensor.Fill(3.0f);
  Arena arena;
  {
    ArenaScope scope(arena);
    nn::Tensor copy = heap_tensor;  // copy allocates by CURRENT policy
    EXPECT_TRUE(copy.arena_backed());
    for (std::size_t i = 0; i < copy.numel(); ++i) ASSERT_EQ(copy[i], 3.0f);
  }
  EXPECT_FALSE(heap_tensor.arena_backed());
}

TEST(TensorArena, MoveKeepsStorageMode) {
  Arena arena;
  ArenaScope scope(arena);
  nn::Tensor t({16});
  t.Fill(2.0f);
  const float* storage = t.data();
  nn::Tensor moved = std::move(t);
  EXPECT_TRUE(moved.arena_backed());
  EXPECT_EQ(moved.data(), storage);  // move steals the arena slice
  EXPECT_EQ(moved[15], 2.0f);
}

TEST(TensorArena, ViewAndSubAliasTensorStorage) {
  Arena arena;
  ArenaScope scope(arena);
  nn::Tensor t({2, 3});
  t.View().At(1, 2) = 4.0f;
  EXPECT_EQ(t.At(1, 2), 4.0f);
  t.Sub(1)[0] = 6.0f;
  EXPECT_EQ(t.At(1, 0), 6.0f);
}

// --------------------------------------------- Arena-vs-heap bit-exactness

NecConfig TinyConfig() {
  NecConfig cfg;
  cfg.stft = {.fft_size = 64, .win_length = 64, .hop_length = 32};
  cfg.conv_channels = 4;
  cfg.fc_hidden = 16;
  cfg.embedding_dim = 8;
  return cfg;
}

TEST(TensorArena, SelectorBitIdenticalUnderArenaScope) {
  // The tentpole contract: running the selector with every per-call
  // temporary arena-backed must emit EXACTLY the bits of the owning heap
  // path — storage policy is invisible to the math (same zero-fill
  // construction semantics, same kernels, same accumulation order).
  const NecConfig cfg = TinyConfig();
  const Selector sel(cfg);

  Rng rng(17);
  dsp::Spectrogram spec(12, cfg.num_bins());
  for (auto& m : spec.mag()) m = std::abs(rng.GaussianF(0.0f, 0.5f));
  std::vector<float> dvec(cfg.embedding_dim);
  for (float& v : dvec) v = rng.GaussianF();

  std::vector<float> heap_out;
  sel.ComputeShadowInto(spec, dvec, heap_out);

  Arena arena;
  std::vector<float> arena_out;
  {
    ArenaScope scope(arena);
    sel.ComputeShadowInto(spec, dvec, arena_out);
  }
  EXPECT_GT(arena.bytes_allocated(), 0u);  // the tensors did use the arena
  ASSERT_EQ(arena_out.size(), heap_out.size());
  for (std::size_t i = 0; i < arena_out.size(); ++i) {
    ASSERT_EQ(arena_out[i], heap_out[i]) << "i=" << i;
  }

  // Steady state: a second scoped run replays into the warmed arena
  // without growing the chain, and still matches bit for bit.
  const std::uint64_t grown = arena.grow_count();
  {
    ArenaScope scope(arena);
    sel.ComputeShadowInto(spec, dvec, arena_out);
    for (std::size_t i = 0; i < arena_out.size(); ++i)
      ASSERT_EQ(arena_out[i], heap_out[i]);
  }
  EXPECT_EQ(arena.grow_count(), grown);
  EXPECT_EQ(arena.InUse(), 0u);
}

}  // namespace
}  // namespace nec::core
