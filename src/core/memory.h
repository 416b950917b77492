// Hot-path memory primitives: bump arena, RAII arena scope and the inline
// tensor shape (DESIGN.md §5i).
//
// The per-chunk serving path (Stft → selector DNN → Istft → ModulateAm)
// used to allocate every temporary from the global heap — a fresh
// std::vector<float> per Tensor, per spectrogram, per scratch buffer.
// These primitives give each thread that computes chunks one Arena that
// is reset at every chunk boundary: allocation is a pointer bump,
// deallocation is free, and after warmup both runtime arms make 0 mallocs
// per chunk (tests/test_hot_path.cpp counts them in every ctest run).
//
// Ownership rules (enforced by convention + tests, see DESIGN.md §5i):
//  - Weights, model cache, and training tensors stay on owning storage.
//    Only per-chunk temporaries live in an arena.
//  - An ArenaScope rewinds its arena on destruction (exception-safe), so
//    arena-backed values must NOT escape the scope that allocated them:
//    copy results into caller-owned storage before the scope ends.
//  - Arenas are single-threaded: one per computing thread (a runtime pool
//    worker or batch dispatcher; core::ChunkScratch::ThisThread), never
//    shared and never kept per session, so resident arena memory scales
//    with threads, not with sessions.
//
// This header is intentionally header-only: nec::nn's Tensor consults
// ArenaScope::Current() from its constructors, and nec_nn must not link
// nec_core (the dependency runs the other way).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace nec::core {

// ------------------------------------------------------------------ Arena

/// Bump allocator over a chain of geometrically-grown blocks. Allocation
/// is a pointer bump; memory is reclaimed only by Rewind/Reset, which keep
/// the blocks for reuse — after a warmup chunk has sized the chain, a
/// steady-state Reset-per-chunk cycle never touches the heap again.
/// Not thread-safe by design: each arena belongs to exactly one thread.
class Arena {
 public:
  static constexpr std::size_t kDefaultAlign = 64;  // cache line
  static constexpr std::size_t kDefaultInitialBytes = std::size_t{1} << 16;

  explicit Arena(std::size_t initial_bytes = kDefaultInitialBytes)
      : initial_bytes_(initial_bytes ? initial_bytes : kDefaultInitialBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A bump position; valid until the blocks allocated after it are
  /// rewound past. Obtained from Position(), consumed by Rewind().
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };

  /// Returns `bytes` of storage aligned to `align` (power of two).
  /// Contents are indeterminate. Zero-byte requests return a unique,
  /// aligned, dereferenceable-for-zero-length pointer.
  void* Allocate(std::size_t bytes, std::size_t align = kDefaultAlign) {
    NEC_DCHECK_MSG((align & (align - 1)) == 0, "alignment must be a power of two");
    while (true) {
      if (active_ < blocks_.size()) {
        Block& b = blocks_[active_];
        // Align the address, not the offset: operator new[] only guarantees
        // __STDCPP_DEFAULT_NEW_ALIGNMENT__ for the block base, so an aligned
        // offset into a misaligned base would still hand out misaligned bytes.
        const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
        const std::size_t aligned = AlignUp(base + offset_, align) - base;
        if (aligned + bytes <= b.size) {
          offset_ = aligned + bytes;
          bytes_allocated_ += bytes;
          high_water_ = std::max(high_water_, InUse());
          return b.data.get() + aligned;
        }
        // Current block exhausted for this request: advance. The skipped
        // tail is wasted until the next Rewind, which is fine — block
        // sizes grow geometrically so waste is bounded by a constant
        // fraction of capacity.
        ++active_;
        offset_ = 0;
        continue;
      }
      // No block fits: grow the chain. Doubling from the last block keeps
      // the total block count logarithmic in peak usage, so steady-state
      // chunks replay entirely inside existing blocks.
      const std::size_t prev = blocks_.empty() ? initial_bytes_ / 2 : blocks_.back().size;
      const std::size_t want = std::max(prev * 2, bytes + align);
      blocks_.push_back(Block{std::make_unique<std::byte[]>(want), want});
      ++grow_count_;
    }
  }

  /// Typed array allocation (no construction — T must be trivial).
  template <typename T>
  T* AllocateArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(Allocate(n * sizeof(T), std::max(alignof(T), std::size_t{16})));
  }

  Mark Position() const { return Mark{active_, offset_}; }

  /// Returns the bump pointer to `mark`. Storage allocated after the mark
  /// is reusable immediately; nothing is freed. Rewinding to a mark taken
  /// on another arena (or already rewound past) is undefined — DCHECK'd.
  void Rewind(Mark mark) {
    NEC_DCHECK_MSG(mark.block < blocks_.size() || (mark.block == 0 && mark.offset == 0),
                   "Arena::Rewind to a position this arena never reached");
    active_ = mark.block;
    offset_ = mark.offset;
  }

  /// Rewind-to-empty: every block is retained, all storage reusable.
  void Reset() { Rewind(Mark{0, 0}); }

  /// Bytes currently handed out (bump positions, not request sums).
  std::size_t InUse() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < active_ && i < blocks_.size(); ++i) n += blocks_[i].size;
    return n + offset_;
  }
  /// Total bytes owned across all blocks.
  std::size_t Capacity() const {
    std::size_t n = 0;
    for (const Block& b : blocks_) n += b.size;
    return n;
  }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t high_water_bytes() const { return high_water_; }
  /// Times the chain grew (a steady-state strand stops growing after
  /// warmup; the bench asserts this indirectly via the malloc counter).
  std::uint64_t grow_count() const { return grow_count_; }
  std::uint64_t bytes_allocated() const { return bytes_allocated_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static std::size_t AlignUp(std::size_t v, std::size_t a) { return (v + a - 1) & ~(a - 1); }

  std::size_t initial_bytes_;
  std::vector<Block> blocks_;
  std::size_t active_ = 0;   // block currently bumping
  std::size_t offset_ = 0;   // within blocks_[active_]
  std::size_t high_water_ = 0;
  std::uint64_t grow_count_ = 0;
  std::uint64_t bytes_allocated_ = 0;
};

// ------------------------------------------------------------- ArenaScope

/// RAII chunk boundary: publishes `arena` as the thread's ambient arena
/// (consulted by nn::Tensor's constructors) and rewinds it to the entry
/// position on destruction — including during exception unwind, so a
/// faulted chunk cannot leak arena space or poison the strand's next
/// chunk. Scopes nest (inner scopes may target the same or a different
/// arena); the previous ambient arena is restored on exit.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena)
      : arena_(&arena), previous_(t_current), mark_(arena.Position()) {
    t_current = &arena;
  }

  ~ArenaScope() {
    arena_->Rewind(mark_);
    t_current = previous_;
  }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// The ambient arena of the calling thread, or nullptr when no scope is
  /// active (allocations fall back to owning heap storage).
  static Arena* Current() { return t_current; }

 private:
  inline static thread_local Arena* t_current = nullptr;

  Arena* arena_;
  Arena* previous_;
  Arena::Mark mark_;
};

// ------------------------------------------------------------------ Shape

/// Inline tensor shape: up to rank 4 (the deepest the selector uses),
/// stored without heap storage so constructing a Tensor never mallocs for
/// its metadata. Replaces the old std::vector<std::size_t> shape.
class Shape {
 public:
  static constexpr std::size_t kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) { Assign(dims.begin(), dims.size()); }
  Shape(const std::vector<std::size_t>& dims) { Assign(dims.data(), dims.size()); }
  Shape(const std::size_t* dims, std::size_t rank) { Assign(dims, rank); }

  std::size_t rank() const { return rank_; }
  std::size_t size() const { return rank_; }  // container-style (== rank)
  bool empty() const { return rank_ == 0; }
  std::size_t operator[](std::size_t i) const {
    NEC_DCHECK(i < rank_);
    return dims_[i];
  }
  std::size_t numel() const {
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
    return rank_ == 0 ? 0 : n;
  }

  const std::size_t* begin() const { return dims_.data(); }
  const std::size_t* end() const { return dims_.data() + rank_; }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (std::size_t i = 0; i < a.rank_; ++i)
      if (a.dims_[i] != b.dims_[i]) return false;
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  void Assign(const std::size_t* dims, std::size_t rank) {
    NEC_CHECK_MSG(rank <= kMaxRank, "Shape rank " << rank << " exceeds kMaxRank");
    rank_ = rank;
    for (std::size_t i = 0; i < rank; ++i) dims_[i] = dims[i];
  }

  std::array<std::size_t, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

}  // namespace nec::core
