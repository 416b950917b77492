// Minimal dense float tensor for the NEC neural network substrate.
//
// Row-major, arbitrary rank up to 4. The selector network only needs rank
// 2 (frames × features) through rank 4 (batched conv) access, so the type
// stays deliberately simple: no strides, no broadcasting.
//
// Storage modes (DESIGN.md §5i): a Tensor constructed while an
// core::ArenaScope is active on the thread takes NON-OWNING storage from
// that arena — allocation is a pointer bump and the storage is reclaimed
// wholesale when the scope rewinds at the chunk boundary. Outside a scope
// (weights, model cache, training, serialization) it owns a
// std::vector<float> exactly as before. The shape is stored inline
// (core::Shape), so no construction path touches the heap for metadata.
// Arena-backed tensors must not outlive their scope; results that escape
// a chunk are copied into caller-owned storage first.
#pragma once

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/memory.h"

namespace nec::nn {

using core::Shape;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(const Shape& shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Copy allocates by the *current* policy (arena if a scope is active,
  /// owning otherwise) and memcpys — copying under a scope never inherits
  /// the source's storage mode.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  static Tensor Zeros(const Shape& shape);
  /// Gaussian init with the given standard deviation.
  static Tensor Randn(const Shape& shape, Rng& rng, float stddev);
  /// Kaiming/He initialization for a layer with `fan_in` inputs.
  static Tensor KaimingNormal(const Shape& shape, Rng& rng,
                              std::size_t fan_in);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.rank(); }
  std::size_t dim(std::size_t i) const { return shape_[i]; }
  std::size_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  /// True when the storage is a bump-arena slice (non-owning).
  bool arena_backed() const { return arena_backed_; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  /// Owning-mode escape hatch for serialization/enrollment code that
  /// moves or swaps the underlying vector. NEC_CHECK's owning storage —
  /// hot-path code must use data()/numel() instead.
  std::vector<float>& vec() {
    NEC_CHECK_MSG(!arena_backed_, "Tensor::vec() on arena-backed storage");
    return owned_;
  }
  const std::vector<float>& vec() const {
    NEC_CHECK_MSG(!arena_backed_, "Tensor::vec() on arena-backed storage");
    return owned_;
  }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D accessor (rank must be 2). Rank and bounds are NEC_DCHECK'd:
  /// calling a wrong-rank accessor reads misindexed memory, so debug
  /// builds throw instead of silently returning garbage.
  float& At(std::size_t r, std::size_t c) {
    CheckAt2(r, c);
    return data_[r * shape_[1] + c];
  }
  float At(std::size_t r, std::size_t c) const {
    CheckAt2(r, c);
    return data_[r * shape_[1] + c];
  }

  /// 3-D accessor (rank must be 3): (c, h, w).
  float& At3(std::size_t c, std::size_t h, std::size_t w) {
    CheckAt3(c, h, w);
    return data_[(c * shape_[1] + h) * shape_[2] + w];
  }
  float At3(std::size_t c, std::size_t h, std::size_t w) const {
    CheckAt3(c, h, w);
    return data_[(c * shape_[1] + h) * shape_[2] + w];
  }

  /// 4-D accessor (rank must be 4): (b, c, h, w) — batched conv tensors.
  float& At4(std::size_t b, std::size_t c, std::size_t h, std::size_t w) {
    CheckAt4(b, c, h, w);
    return data_[((b * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float At4(std::size_t b, std::size_t c, std::size_t h,
            std::size_t w) const {
    CheckAt4(b, c, h, w);
    return data_[((b * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  void Fill(float v);
  /// Reinterprets the buffer with a new shape of identical element count.
  void Reshape(const Shape& shape);

  /// Elementwise in-place operations.
  void Add(const Tensor& other);          // this += other
  void AddScaled(const Tensor& other, float s);  // this += s*other
  void Scale(float s);

  /// L2 norm of the flattened tensor.
  float Norm() const;

 private:
  /// Binds storage for `numel` elements per the ambient policy and
  /// zero-fills it (both modes: construction semantics are identical, so
  /// arena-backed inference stays bit-identical to the heap path).
  void AllocateStorage();

  void CheckAt2([[maybe_unused]] std::size_t r,
                [[maybe_unused]] std::size_t c) const {
    NEC_DCHECK_MSG(rank() == 2, "Tensor::At on rank-" << rank());
    NEC_DCHECK_MSG(r < shape_[0] && c < shape_[1],
                   "Tensor::At(" << r << ", " << c << ") out of ("
                                 << shape_[0] << ", " << shape_[1] << ")");
  }
  void CheckAt3([[maybe_unused]] std::size_t c,
                [[maybe_unused]] std::size_t h,
                [[maybe_unused]] std::size_t w) const {
    NEC_DCHECK_MSG(rank() == 3, "Tensor::At3 on rank-" << rank());
    NEC_DCHECK_MSG(c < shape_[0] && h < shape_[1] && w < shape_[2],
                   "Tensor::At3(" << c << ", " << h << ", " << w
                                  << ") out of (" << shape_[0] << ", "
                                  << shape_[1] << ", " << shape_[2] << ")");
  }
  void CheckAt4([[maybe_unused]] std::size_t b,
                [[maybe_unused]] std::size_t c,
                [[maybe_unused]] std::size_t h,
                [[maybe_unused]] std::size_t w) const {
    NEC_DCHECK_MSG(rank() == 4, "Tensor::At4 on rank-" << rank());
    NEC_DCHECK_MSG(
        b < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3],
        "Tensor::At4(" << b << ", " << c << ", " << h << ", " << w
                       << ") out of (" << shape_[0] << ", " << shape_[1]
                       << ", " << shape_[2] << ", " << shape_[3] << ")");
  }

  Shape shape_;
  float* data_ = nullptr;
  std::size_t numel_ = 0;
  bool arena_backed_ = false;
  std::vector<float> owned_;  // bound to data_ in owning mode, else empty
};

}  // namespace nec::nn
