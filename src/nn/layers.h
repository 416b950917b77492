// Neural network layers with explicit forward/backward passes.
//
// The NEC selector (core/selector.h) is a static pipeline of these layers:
// Conv2D with temporal dilation, elementwise activations, and Linear heads.
// Layers cache whatever the backward pass needs during Forward; Backward
// consumes the cached state, accumulates parameter gradients into
// Param::grad and returns the gradient with respect to the layer input.
//
// Thread-safety contract (nec::runtime shares one trained weight set across
// concurrent sessions). Each layer has one inference path and one training
// path over the same kernels:
//   * InferBatchInto is the only inference path. It is const, writes no
//     member state (scratch is per-thread), and takes a leading batch
//     dimension: rank 4 (B, C, H, W) for Conv2D, rank 3 (B, rows, in) for
//     Linear, and the item shape plus one leading dim for activations. A
//     single item is a batch of one. It writes into a caller-owned output
//     that keeps its storage when it already has the output shape, so a
//     caller can ping-pong two buffers through a layer stack; the
//     activations also run in place. Any number of threads may call it on
//     the same layer concurrently as long as nothing mutates the
//     parameters at the same time.
//   * Forward/Backward MUTATE the layer (activation caches, MAC counters)
//     and must only be used by a single thread — the training path. Forward
//     runs the same kernel InferBatchInto runs, on one unbatched item.
//   * InferBatchInto is REQUIRED to be bit-identical, per item, to Forward
//     on that item alone: every output element accumulates its k-products
//     in the same ascending-k order whatever the batch size. The runtime
//     micro-batching layer (runtime/batcher.h) depends on this to coalesce
//     chunks from concurrent sessions without changing any session's
//     emitted bits.
//
// The LSTM layer exists for the VoiceFilter runtime baseline (Table II) and
// implements forward only — the baseline is never trained in this repo.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace nec::nn {

/// A learnable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer; caches activations needed by Backward.
  virtual Tensor Forward(const Tensor& input) = 0;

  /// Propagates gradients; accumulates into parameter grads and returns the
  /// gradient with respect to the layer's input.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Const forward over a leading batch dimension into `out`,
  /// bit-identical per item to Forward (see contract above). `out` is
  /// re-bound to the output shape unless it already has it, in which case
  /// its storage is overwritten in place. `out` must not be `batch` except
  /// for the activations. Layers without a shared-weight inference path
  /// (LSTM) keep the throwing default.
  virtual void InferBatchInto(const Tensor& batch, Tensor& out) const;

  /// Learnable parameters (empty for activations).
  virtual std::vector<Param*> Params() { return {}; }

  virtual std::string Name() const = 0;

  /// Approximate multiply-accumulate count of one Forward call with the
  /// last-seen input shape (0 before the first Forward). Activations
  /// report their processed element count — one fused op per element —
  /// so the Table II MAC audit does not undercount them. Used by
  /// the runtime analysis bench (Table II).
  virtual std::size_t LastForwardMacs() const { return 0; }
};

/// 2-D convolution over (channels, height, width) tensors; stride 1, zero
/// "same" padding, independent dilation per axis. Height is the time axis
/// and width the frequency axis in the selector's usage.
///
/// Forward and InferBatchInto both run ONE direct kernel (ComputeInto):
/// a zero-padded input copy, then register tiles of output channels ×
/// width vectors, each output element accumulating its K taps ascending in
/// k before the bias. The im2col lowering survives only as Backward's
/// gradient workspace. Sharing the kernel makes every path bit-identical
/// by construction — the batched inference contract above — and the
/// direct form is an order of magnitude lighter on memory traffic than
/// im2col + GEMM at the selector's small channel counts.
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_h, std::size_t kernel_w, std::size_t dilation_h,
         std::size_t dilation_w, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// (B, C_in, H, W) -> (B, C_out, H, W).
  void InferBatchInto(const Tensor& batch, Tensor& out) const override;
  std::vector<Param*> Params() override { return {&weight_, &bias_}; }
  std::string Name() const override { return "Conv2D"; }
  std::size_t LastForwardMacs() const override { return last_macs_; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  void Im2ColT(const float* in, std::size_t h, std::size_t w,
               std::vector<float>& colt) const;
  /// One item: `in` is a (C_in, h, w) slab, `out` a (C_out, h, w) slab.
  /// `scratch` receives the zero-padded input copy (grow-only).
  void ComputeInto(const float* in, std::size_t h, std::size_t w,
                   std::vector<float>& scratch, float* out) const;

  std::size_t in_channels_, out_channels_;
  std::size_t kh_, kw_, dh_, dw_;
  Param weight_;  // (out_channels, in_channels*kh*kw)
  Param bias_;    // (out_channels)

  std::vector<float> pad_cache_;   // Forward's padded-input scratch
  std::vector<float> colt_cache_;  // (in_channels*kh*kw, H*W) for Backward
  std::size_t in_h_ = 0, in_w_ = 0;
  std::size_t last_macs_ = 0;
};

/// Fully connected layer applied to the last dimension of a (rows, in)
/// tensor.
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// (B, rows, in) -> (B, rows, out); one GEMM over all B*rows rows.
  void InferBatchInto(const Tensor& batch, Tensor& out) const override;
  std::vector<Param*> Params() override { return {&weight_, &bias_}; }
  std::string Name() const override { return "Linear"; }
  std::size_t LastForwardMacs() const override { return last_macs_; }

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  /// Shared kernel: `rows` rows of `in` produce `rows` rows of `out`.
  void InferRows(const float* in, std::size_t rows, float* out) const;

  std::size_t in_features_, out_features_;
  Param weight_;  // (out, in)
  Param bias_;    // (out)
  Tensor input_cache_;
  std::size_t last_macs_ = 0;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void InferBatchInto(const Tensor& batch, Tensor& out) const override;
  std::string Name() const override { return "ReLU"; }
  std::size_t LastForwardMacs() const override { return last_elems_; }

 private:
  Tensor input_cache_;
  std::size_t last_elems_ = 0;
};

/// Logistic sigmoid activation.
class Sigmoid : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void InferBatchInto(const Tensor& batch, Tensor& out) const override;
  std::string Name() const override { return "Sigmoid"; }
  std::size_t LastForwardMacs() const override { return last_elems_; }

 private:
  Tensor output_cache_;
  std::size_t last_elems_ = 0;
};

/// Unidirectional LSTM over a (T, input) sequence producing (T, hidden).
/// Forward-only: used by the VoiceFilter baseline for runtime comparison.
/// Keeps the throwing InferBatchInto default — the baseline never runs on
/// the shared-weight concurrent path.
class Lstm : public Layer {
 public:
  Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  /// Not supported; throws nec::CheckError.
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Param*> Params() override { return {&w_, &u_, &b_}; }
  std::string Name() const override { return "Lstm"; }
  std::size_t LastForwardMacs() const override { return last_macs_; }

 private:
  std::size_t input_size_, hidden_size_;
  Param w_;  // (4*hidden, input)  gate order: i, f, g, o
  Param u_;  // (4*hidden, hidden)
  Param b_;  // (4*hidden)
  std::size_t last_macs_ = 0;
};

}  // namespace nec::nn
