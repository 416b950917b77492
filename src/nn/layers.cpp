#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "nn/gemm.h"

namespace nec::nn {

// ------------------------------------------------------------------ Layer

void Layer::InferBatchInto(const Tensor&, Tensor&) const {
  NEC_CHECK_MSG(false, Name() << " has no batched inference path");
}

namespace {

// Re-binds `t` to `shape` unless it already has it: a warm output keeps
// its storage, and every kernel overwrites all of it.
void EnsureShape(Tensor& t, const Shape& shape) {
  if (t.shape() != shape) t = Tensor(shape);
}

}  // namespace

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w,
               std::size_t dilation_h, std::size_t dilation_w, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      dh_(dilation_h),
      dw_(dilation_w),
      weight_(Tensor::KaimingNormal(
          {out_channels, in_channels * kernel_h * kernel_w}, rng,
          in_channels * kernel_h * kernel_w)),
      bias_(Tensor::Zeros({out_channels})) {
  NEC_CHECK(in_channels >= 1 && out_channels >= 1);
  NEC_CHECK_MSG(kernel_h % 2 == 1 && kernel_w % 2 == 1,
                "same-padding Conv2D requires odd kernel sizes");
  NEC_CHECK(dilation_h >= 1 && dilation_w >= 1);
}

// Builds the K-major lowering colT(K, P): row idx = (c*kh + ky)*kw + kx —
// the same k index the weight matrix uses — holds the input shifted by the
// tap's (ky, kx) offset, zero-padded at the edges. Each colT row is h
// shifted copies of input rows, so it assembles from memcpy + small zero
// fills instead of a per-element gather: ~K·P bytes of straight-line
// copies, and the GEMM that follows streams both operands contiguously.
void Conv2D::Im2ColT(const float* in, std::size_t h, std::size_t w,
                     std::vector<float>& colt) const {
  const std::ptrdiff_t pad_h =
      static_cast<std::ptrdiff_t>(dh_ * (kh_ - 1) / 2);
  const std::ptrdiff_t pad_w =
      static_cast<std::ptrdiff_t>(dw_ * (kw_ - 1) / 2);
  const std::size_t pixels = h * w;

  std::size_t idx = 0;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    const float* chan = in + c * pixels;
    for (std::size_t ky = 0; ky < kh_; ++ky) {
      const std::ptrdiff_t sy0 =
          static_cast<std::ptrdiff_t>(ky * dh_) - pad_h;
      for (std::size_t kx = 0; kx < kw_; ++kx, ++idx) {
        const std::ptrdiff_t sx0 =
            static_cast<std::ptrdiff_t>(kx * dw_) - pad_w;
        // Valid x positions: 0 <= x + sx0 < w (none when the tap reaches
        // past a row narrower than the padding).
        const std::size_t shift =
            std::min(w, static_cast<std::size_t>(sx0 < 0 ? -sx0 : sx0));
        const std::size_t x_lo = sx0 < 0 ? shift : 0;
        const std::size_t x_hi = sx0 > 0 ? w - shift : w;
        float* row = colt.data() + idx * pixels;
        for (std::size_t y = 0; y < h; ++y) {
          const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y) + sy0;
          float* dst = row + y * w;
          if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(h)) {
            std::memset(dst, 0, w * sizeof(float));
            continue;
          }
          const float* src = chan + static_cast<std::size_t>(sy) * w;
          if (x_lo > 0) std::memset(dst, 0, x_lo * sizeof(float));
          if (x_hi > x_lo) {
            std::memcpy(dst + x_lo, src + x_lo + sx0,
                        (x_hi - x_lo) * sizeof(float));
          }
          if (x_hi < w)
            std::memset(dst + x_hi, 0, (w - x_hi) * sizeof(float));
        }
      }
    }
  }
}

namespace {

// Float vector for the convolution inner loop, sized to the widest SIMD
// registers the compile target actually has. Wider-than-native vectors
// would be split and spilled to the stack. Element-wise ops on these types
// are ordinary per-lane float arithmetic, so the kernel stays
// deterministic at every width.
#if defined(__AVX512F__)
typedef float ConvVec __attribute__((vector_size(64), aligned(4)));
#elif defined(__AVX__)
typedef float ConvVec __attribute__((vector_size(32), aligned(4)));
#else
typedef float ConvVec __attribute__((vector_size(16), aligned(4)));
#endif
constexpr std::size_t kConvLanes = sizeof(ConvVec) / sizeof(float);

// Register tile: kTileM output channels × kTileX<MT> vectors of one output
// row. MT·XV accumulators, XV input loads and one weight broadcast must fit
// the register file (32 registers with AVX-512, 16 with AVX2 or SSE).
// Narrower channel tiles, for leftover channels, take wider rows so they
// still keep enough independent FMA chains in flight. The shapes were
// picked by measurement on the selector's layers (C_out 16, 6 and 2).
#if defined(__AVX512F__)
constexpr std::size_t kTileM = 8;
template <std::size_t MT>
constexpr std::size_t kTileX = MT == 8 ? 3 : MT == 6 ? 4 : MT == 4 ? 6 : 9;
#else
constexpr std::size_t kTileM = 4;
template <std::size_t MT>
constexpr std::size_t kTileX = MT == 4 ? 3 : MT == 2 ? 4 : 6;
#endif

// An unaligned vector load straight into a register, in the form the
// _mm*_loadu_ps intrinsics use (a may_alias vector type). Not a
// __builtin_memcpy into a local vector: generic and haswell tuning expand
// that by pieces (with AVX2, two 16-byte copies through the stack and one
// 32-byte reload), a store-forwarding stall on every input load.
typedef ConvVec ConvVecInput __attribute__((may_alias));
inline ConvVec LoadConvVec(const float* p) {
  return *reinterpret_cast<const ConvVecInput*>(p);
}

// The operands of one ComputeInto call; `slab` is the padded input.
struct ConvShape {
  const float* slab;
  const float* weight;  // (C_out, K)
  const float* bias;
  float* out;
  std::size_t in_channels, kh, kw, dh, dw;
  std::size_t ph, pw;  // padded slab height and row stride
  std::size_t h, w;
};

// Output channels m0..m0+MT × vectors x0, x0 + L, ... x0 + (XV-1)·L of
// output row y. Each tap loads its XV shifted input vectors once and feeds
// them to all MT channels; every output still accumulates its own taps in
// ascending k from 0 in the form `a += w * v` (one fused multiply-add
// wherever the compiler contracts it), then adds the bias. Vectors that run
// past w read the slab's right padding and are stored partially.
template <std::size_t MT, std::size_t XV>
void ConvTile(const ConvShape& s, std::size_t m0, std::size_t y,
              std::size_t x0) {
  const std::size_t taps = s.in_channels * s.kh * s.kw;
  const float* wt = s.weight + m0 * taps;
  ConvVec acc[MT][XV] = {};
  std::size_t k = 0;
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    for (std::size_t ky = 0; ky < s.kh; ++ky) {
      const float* row = s.slab + (c * s.ph + y + ky * s.dh) * s.pw + x0;
      for (std::size_t kx = 0; kx < s.kw; ++kx, ++k) {
        const float* src = row + kx * s.dw;
        ConvVec v[XV];
#pragma GCC unroll 16
        for (std::size_t j = 0; j < XV; ++j) {
          v[j] = LoadConvVec(src + j * kConvLanes);
        }
#pragma GCC unroll 16
        for (std::size_t i = 0; i < MT; ++i) {
          const float wk = wt[i * taps + k];
#pragma GCC unroll 16
          for (std::size_t j = 0; j < XV; ++j) acc[i][j] += wk * v[j];
        }
      }
    }
  }
  const std::size_t pixels = s.h * s.w;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < MT; ++i) {
    const float b = s.bias[m0 + i];
    float* dst = s.out + (m0 + i) * pixels + y * s.w;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < XV; ++j) {
      const std::size_t x = x0 + j * kConvLanes;
      const ConvVec r = acc[i][j] + b;
      const std::size_t n = std::min(kConvLanes, s.w - x);
      if (n == kConvLanes) {
        __builtin_memcpy(dst + x, &r, sizeof(r));
      } else {
        std::memcpy(dst + x, &r, n * sizeof(float));
      }
    }
  }
}

// Channels m0..m0+MT of output row y from vector j on: whole XV tiles,
// then the rest in halved tiles.
template <std::size_t MT, std::size_t XV = kTileX<MT>>
void ConvRow(const ConvShape& s, std::size_t m0, std::size_t y,
             std::size_t j = 0) {
  const std::size_t vecs = (s.w + kConvLanes - 1) / kConvLanes;
  for (; j + XV <= vecs; j += XV) {
    ConvTile<MT, XV>(s, m0, y, j * kConvLanes);
  }
  if constexpr (XV > 1) ConvRow<MT, XV / 2>(s, m0, y, j);
}

}  // namespace

// Direct "same"-padded convolution over a zero-padded copy of the input.
//
// `scratch` holds the padded input (C_in, h + 2*pad_h, W + 2*pad_w), where
// W is w rounded up to whole vectors, so the last vector of a row is an
// ordinary load; building it costs one input-sized pass of memcpys. Each
// output element accumulates its K = C_in*kh*kw taps in ascending-k order,
//     out[m][y][x] += weight[m][k] * padded[c][y + ky*dh][x + kx*dw]
// then adds the bias. The padding contributes explicit `w * 0.0f` addends,
// exactly like the zero entries of the im2col lowering Backward keeps for
// its gradients, and Forward and InferBatchInto share this kernel, so every
// path sees the same addend sequence and is bit-compatible by construction.
//
// The loops run in register tiles (ConvTile): a tile of output channels ×
// vectors of one row stays in registers across the whole tap loop, and each
// shifted input vector is loaded once per tap for every channel in the
// tile. Leftover channels take narrower tiles (6 or 4, then 2, then 1).
void Conv2D::ComputeInto(const float* in, std::size_t h, std::size_t w,
                         std::vector<float>& scratch, float* out) const {
  const std::size_t pad_h = dh_ * (kh_ - 1) / 2;
  const std::size_t pad_w = dw_ * (kw_ - 1) / 2;
  const std::size_t wv = (w + kConvLanes - 1) / kConvLanes * kConvLanes;
  const std::size_t ph = h + 2 * pad_h, pw = wv + 2 * pad_w;

  scratch.assign(in_channels_ * ph * pw, 0.0f);
  for (std::size_t c = 0; c < in_channels_; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      std::memcpy(scratch.data() + ((c * ph) + y + pad_h) * pw + pad_w,
                  in + (c * h + y) * w, w * sizeof(float));
    }
  }

  const ConvShape s{scratch.data(), weight_.value.data(), bias_.value.data(),
                    out, in_channels_, kh_, kw_, dh_, dw_, ph, pw, h, w};
  for (std::size_t y = 0; y < h; ++y) {
    std::size_t m0 = 0;
    for (; m0 + kTileM <= out_channels_; m0 += kTileM) {
      ConvRow<kTileM>(s, m0, y);
    }
    if constexpr (kTileM == 8) {
      if (out_channels_ - m0 >= 6) {
        ConvRow<6>(s, m0, y);
        m0 += 6;
      } else if (out_channels_ - m0 >= 4) {
        ConvRow<4>(s, m0, y);
        m0 += 4;
      }
    }
    if (out_channels_ - m0 >= 2) {
      ConvRow<2>(s, m0, y);
      m0 += 2;
    }
    if (m0 < out_channels_) ConvRow<1>(s, m0, y);
  }
}

Tensor Conv2D::Forward(const Tensor& input) {
  NEC_CHECK_MSG(input.rank() == 3 && input.dim(0) == in_channels_,
                "Conv2D expects (in_channels, H, W) input");
  const std::size_t h = input.dim(1), w = input.dim(2);
  Tensor out({out_channels_, h, w});
  ComputeInto(input.data(), h, w, pad_cache_, out.data());
  // The backward pass consumes the im2col lowering (grad_weight is a GEMM
  // against colT); build it here — training throughput is not the hot
  // path, and keeping gradients on the GEMM formulation keeps Backward
  // simple while the forward kernels stay direct.
  colt_cache_.resize(in_channels_ * kh_ * kw_ * h * w);
  Im2ColT(input.data(), h, w, colt_cache_);
  in_h_ = h;
  in_w_ = w;
  last_macs_ = out_channels_ * h * w * in_channels_ * kh_ * kw_;
  return out;
}

void Conv2D::InferBatchInto(const Tensor& batch, Tensor& out) const {
  NEC_CHECK_MSG(batch.rank() == 4 && batch.dim(1) == in_channels_,
                "Conv2D::InferBatchInto expects (B, in_channels, H, W)");
  NEC_CHECK_MSG(&out != &batch, "Conv2D cannot run in place");
  const std::size_t b = batch.dim(0), h = batch.dim(2), w = batch.dim(3);
  const std::size_t in_item = in_channels_ * h * w;
  const std::size_t out_item = out_channels_ * h * w;
  // Per-thread scratch: inference is const and shared across sessions, so
  // a member cache would race; a thread_local (shared by every Conv2D on
  // the thread, sized to the largest layer) keeps steady-state inference
  // allocation-free without locks. Bit-exactness is unaffected — the
  // scratch is fully rewritten (see ComputeInto) before it is read.
  thread_local std::vector<float> scratch;
  EnsureShape(out, {b, out_channels_, h, w});
  // Each item runs exactly the per-item ComputeInto kernel Forward runs
  // over the shared weights, so the batched path is bit-identical to
  // Forward per item by construction (the batch win is hot-cache weights
  // and amortized per-layer overhead, not a reassociated reduction).
  for (std::size_t i = 0; i < b; ++i) {
    ComputeInto(batch.data() + i * in_item, h, w, scratch,
                out.data() + i * out_item);
  }
}

Tensor Conv2D::Backward(const Tensor& grad_output) {
  NEC_CHECK_MSG(grad_output.rank() == 3 &&
                    grad_output.dim(0) == out_channels_ &&
                    grad_output.dim(1) == in_h_ &&
                    grad_output.dim(2) == in_w_,
                "Conv2D backward shape mismatch");
  const std::size_t pixels = in_h_ * in_w_;
  const std::size_t k = in_channels_ * kh_ * kw_;

  // grad_weight(C_out, K) += grad_out(C_out, P) * colT(K, P)^T
  GemmNT(grad_output.data(), colt_cache_.data(), weight_.grad.data(),
         out_channels_, k, pixels, 1.0f, 1.0f);

  // grad_bias += row sums of grad_out.
  for (std::size_t c = 0; c < out_channels_; ++c) {
    const float* gc = grad_output.data() + c * pixels;
    double acc = 0.0;
    for (std::size_t p = 0; p < pixels; ++p) acc += gc[p];
    bias_.grad[c] += static_cast<float>(acc);
  }

  // grad_colT(K, P) = weight(C_out, K)^T * grad_out(C_out, P)
  Tensor grad_colt({k, pixels});
  GemmTN(weight_.value.data(), grad_output.data(), grad_colt.data(), k,
         pixels, out_channels_);

  // col2im: the inverse of Im2ColT — each colT row scatter-adds back into
  // the input at its tap's (ky, kx) offset. Same shifted-row structure,
  // so the adds are contiguous spans, not per-element gathers.
  Tensor grad_input({in_channels_, in_h_, in_w_});
  const std::ptrdiff_t pad_h =
      static_cast<std::ptrdiff_t>(dh_ * (kh_ - 1) / 2);
  const std::ptrdiff_t pad_w =
      static_cast<std::ptrdiff_t>(dw_ * (kw_ - 1) / 2);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    float* chan = grad_input.data() + c * pixels;
    for (std::size_t ky = 0; ky < kh_; ++ky) {
      const std::ptrdiff_t sy0 =
          static_cast<std::ptrdiff_t>(ky * dh_) - pad_h;
      for (std::size_t kx = 0; kx < kw_; ++kx, ++idx) {
        const std::ptrdiff_t sx0 =
            static_cast<std::ptrdiff_t>(kx * dw_) - pad_w;
        const std::size_t x_lo =
            sx0 < 0 ? static_cast<std::size_t>(-sx0) : 0;
        const std::size_t x_hi =
            sx0 > 0 ? in_w_ - static_cast<std::size_t>(sx0) : in_w_;
        const float* row = grad_colt.data() + idx * pixels;
        for (std::size_t y = 0; y < in_h_; ++y) {
          const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y) + sy0;
          if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(in_h_)) continue;
          const float* src = row + y * in_w_;
          float* dst = chan + static_cast<std::size_t>(sy) * in_w_;
          for (std::size_t x = x_lo; x < x_hi; ++x) dst[x + sx0] += src[x];
        }
      }
    }
  }
  return grad_input;
}

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::KaimingNormal({out_features, in_features}, rng,
                                    in_features)),
      bias_(Tensor::Zeros({out_features})) {
  NEC_CHECK(in_features >= 1 && out_features >= 1);
}

void Linear::InferRows(const float* in, std::size_t rows, float* out) const {
  // Each output row depends only on its own input row, so running B items'
  // rows through ONE GemmNT call is bit-identical, row for row, to B
  // separate calls — the property Linear::InferBatchInto relies on.
  GemmNT(in, weight_.value.data(), out, rows, out_features_, in_features_);
  for (std::size_t r = 0; r < rows; ++r) {
    float* orow = out + r * out_features_;
    for (std::size_t j = 0; j < out_features_; ++j)
      orow[j] += bias_.value[j];
  }
}

void Linear::InferBatchInto(const Tensor& batch, Tensor& out) const {
  NEC_CHECK_MSG(batch.rank() == 3 && batch.dim(2) == in_features_,
                "Linear::InferBatchInto expects (B, rows, in_features)");
  NEC_CHECK_MSG(&out != &batch, "Linear cannot run in place");
  EnsureShape(out, {batch.dim(0), batch.dim(1), out_features_});
  InferRows(batch.data(), batch.dim(0) * batch.dim(1), out.data());
}

Tensor Linear::Forward(const Tensor& input) {
  NEC_CHECK_MSG(input.rank() == 2 && input.dim(1) == in_features_,
                "Linear expects (rows, in_features); got last dim "
                    << (input.rank() >= 1 ? input.dim(input.rank() - 1) : 0));
  Tensor out({input.dim(0), out_features_});
  InferRows(input.data(), input.dim(0), out.data());
  input_cache_ = input;
  last_macs_ = input.dim(0) * out_features_ * in_features_;
  return out;
}

Tensor Linear::Backward(const Tensor& grad_output) {
  const std::size_t rows = input_cache_.dim(0);
  NEC_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == rows &&
            grad_output.dim(1) == out_features_);

  // grad_weight(out, in) += grad_out(rows, out)^T * input(rows, in)
  GemmTN(grad_output.data(), input_cache_.data(), weight_.grad.data(),
         out_features_, in_features_, rows, 1.0f, 1.0f);

  for (std::size_t r = 0; r < rows; ++r) {
    const float* grow = grad_output.data() + r * out_features_;
    for (std::size_t j = 0; j < out_features_; ++j)
      bias_.grad[j] += grow[j];
  }

  // grad_input(rows, in) = grad_out(rows, out) * weight(out, in)
  Tensor grad_input({rows, in_features_});
  GemmNN(grad_output.data(), weight_.value.data(), grad_input.data(), rows,
         in_features_, out_features_);
  return grad_input;
}

// ----------------------------------------------------------- Activations

namespace {

// The elementwise kernels: Forward and InferBatchInto both map through
// these, so the two paths are bit-identical by construction. Each output
// element depends only on the input element at the same index, so the map
// may run in place.
template <typename F>
void MapInto(const Tensor& input, Tensor& out, F f) {
  EnsureShape(out, input.shape());
  const float* in = input.data();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] = f(in[i]);
}

float ReluOf(float v) { return v > 0.0f ? v : 0.0f; }
float SigmoidOf(float v) { return 1.0f / (1.0f + std::exp(-v)); }

}  // namespace

void ReLU::InferBatchInto(const Tensor& batch, Tensor& out) const {
  MapInto(batch, out, ReluOf);
}

Tensor ReLU::Forward(const Tensor& input) {
  input_cache_ = input;
  last_elems_ = input.numel();
  Tensor out;
  MapInto(input, out, ReluOf);
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  NEC_CHECK(grad_output.numel() == input_cache_.numel());
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (input_cache_[i] <= 0.0f) grad[i] = 0.0f;
  }
  return grad;
}

void Sigmoid::InferBatchInto(const Tensor& batch, Tensor& out) const {
  MapInto(batch, out, SigmoidOf);
}

Tensor Sigmoid::Forward(const Tensor& input) {
  Tensor out;
  MapInto(input, out, SigmoidOf);
  output_cache_ = out;
  last_elems_ = input.numel();
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  NEC_CHECK(grad_output.numel() == output_cache_.numel());
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float y = output_cache_[i];
    grad[i] *= y * (1.0f - y);
  }
  return grad;
}

// ------------------------------------------------------------------ LSTM

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_(Tensor::KaimingNormal({4 * hidden_size, input_size}, rng,
                               input_size)),
      u_(Tensor::KaimingNormal({4 * hidden_size, hidden_size}, rng,
                               hidden_size)),
      b_(Tensor::Zeros({4 * hidden_size})) {
  NEC_CHECK(input_size >= 1 && hidden_size >= 1);
}

Tensor Lstm::Forward(const Tensor& input) {
  NEC_CHECK_MSG(input.rank() == 2 && input.dim(1) == input_size_,
                "Lstm expects (T, input_size)");
  const std::size_t T = input.dim(0);
  const std::size_t H = hidden_size_;

  Tensor out({T, H});
  std::vector<float> h(H, 0.0f), c(H, 0.0f), gates(4 * H);

  for (std::size_t t = 0; t < T; ++t) {
    // gates = W x_t + U h_{t-1} + b
    GemmNT(w_.value.data(), input.data() + t * input_size_, gates.data(),
           4 * H, 1, input_size_);
    GemmNT(u_.value.data(), h.data(), gates.data(), 4 * H, 1, H, 1.0f,
           1.0f);
    for (std::size_t j = 0; j < 4 * H; ++j) gates[j] += b_.value[j];

    for (std::size_t j = 0; j < H; ++j) {
      const float i_g = 1.0f / (1.0f + std::exp(-gates[j]));
      const float f_g = 1.0f / (1.0f + std::exp(-gates[H + j]));
      const float g_g = std::tanh(gates[2 * H + j]);
      const float o_g = 1.0f / (1.0f + std::exp(-gates[3 * H + j]));
      c[j] = f_g * c[j] + i_g * g_g;
      h[j] = o_g * std::tanh(c[j]);
      out.At(t, j) = h[j];
    }
  }
  last_macs_ = T * 4 * H * (input_size_ + H);
  return out;
}

Tensor Lstm::Backward(const Tensor&) {
  NEC_CHECK_MSG(false,
                "Lstm is forward-only (VoiceFilter runtime baseline)");
  return Tensor();
}

}  // namespace nec::nn
