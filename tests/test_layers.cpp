// Tests for NN layers: shapes, known results, and finite-difference
// gradient checks (the property that makes training trustworthy).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "common/rng.h"
#include "nn/layers.h"

namespace nec::nn {
namespace {

// Scalar loss = <output, probe> with a fixed random probe, so
// dLoss/dOutput = probe.
float ProbeLoss(const Tensor& out, const Tensor& probe) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) acc += out[i] * probe[i];
  return static_cast<float>(acc);
}

// Checks analytic input gradients of `layer` against central differences.
void CheckInputGradient(Layer& layer, Tensor input, double tol = 2e-2) {
  Rng rng(99);
  Tensor out = layer.Forward(input);
  const Tensor probe = Tensor::Randn(out.shape(), rng, 1.0f);
  const Tensor grad_in = layer.Backward(probe);
  ASSERT_EQ(grad_in.numel(), input.numel());

  const float eps = 1e-2f;
  // Spot-check a subset of coordinates for speed.
  const std::size_t stride = std::max<std::size_t>(1, input.numel() / 41);
  for (std::size_t i = 0; i < input.numel(); i += stride) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const float lp = ProbeLoss(layer.Forward(plus), probe);
    const float lm = ProbeLoss(layer.Forward(minus), probe);
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(grad_in[i], numeric,
                tol * (1.0 + std::abs(numeric)))
        << "input coordinate " << i;
  }
}

// Checks analytic parameter gradients against central differences.
void CheckParamGradients(Layer& layer, const Tensor& input,
                         double tol = 2e-2) {
  Rng rng(77);
  Tensor out = layer.Forward(input);
  const Tensor probe = Tensor::Randn(out.shape(), rng, 1.0f);
  for (Param* p : layer.Params()) p->ZeroGrad();
  layer.Backward(probe);

  const float eps = 1e-2f;
  for (Param* p : layer.Params()) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.numel() / 23);
    for (std::size_t i = 0; i < p->value.numel(); i += stride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float lp = ProbeLoss(layer.Forward(input), probe);
      p->value[i] = saved - eps;
      const float lm = ProbeLoss(layer.Forward(input), probe);
      p->value[i] = saved;
      const float numeric = (lp - lm) / (2.0f * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol * (1.0 + std::abs(numeric)))
          << "param coordinate " << i;
    }
  }
}

// ------------------------------------------------------------------ Conv2D

TEST(Conv2D, OutputShapeIsSamePadded) {
  Rng rng(1);
  Conv2D conv(3, 5, 3, 7, 2, 1, rng);
  Tensor in = Tensor::Randn({3, 10, 12}, rng, 1.0f);
  Tensor out = conv.Forward(in);
  ASSERT_EQ(out.rank(), 3u);
  EXPECT_EQ(out.dim(0), 5u);
  EXPECT_EQ(out.dim(1), 10u);
  EXPECT_EQ(out.dim(2), 12u);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Rng rng(2);
  Conv2D conv(1, 1, 1, 1, 1, 1, rng);
  conv.weight().value[0] = 1.0f;
  conv.bias().value[0] = 0.0f;
  Tensor in = Tensor::Randn({1, 4, 5}, rng, 1.0f);
  Tensor out = conv.Forward(in);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i]);
  }
}

TEST(Conv2D, BiasAddsUniformly) {
  Rng rng(3);
  Conv2D conv(1, 2, 1, 1, 1, 1, rng);
  conv.weight().value.Fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor in = Tensor::Randn({1, 3, 3}, rng, 1.0f);
  Tensor out = conv.Forward(in);
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_FLOAT_EQ(out[p], 1.5f);
    EXPECT_FLOAT_EQ(out[9 + p], -2.0f);
  }
}

TEST(Conv2D, AveragingKernelOnConstantInput) {
  Rng rng(4);
  Conv2D conv(1, 1, 3, 3, 1, 1, rng);
  conv.weight().value.Fill(1.0f / 9.0f);
  conv.bias().value[0] = 0.0f;
  Tensor in({1, 5, 5});
  in.Fill(2.0f);
  Tensor out = conv.Forward(in);
  // Interior pixels: full 3x3 neighborhood of 2.0 → 2.0. Corners see 4/9.
  EXPECT_NEAR(out.At3(0, 2, 2), 2.0f, 1e-5);
  EXPECT_NEAR(out.At3(0, 0, 0), 2.0f * 4.0f / 9.0f, 1e-5);
}

TEST(Conv2D, DilationWidensReceptiveField) {
  Rng rng(5);
  Conv2D conv(1, 1, 3, 1, 4, 1, rng);  // 3-tap, dilation 4 → reach ±4
  conv.weight().value.Fill(1.0f);
  conv.bias().value[0] = 0.0f;
  Tensor in({1, 16, 1});
  in.At3(0, 8, 0) = 1.0f;  // impulse
  Tensor out = conv.Forward(in);
  // Taps at -4, 0, +4 from each output position.
  EXPECT_FLOAT_EQ(out.At3(0, 4, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At3(0, 8, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At3(0, 12, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At3(0, 7, 0), 0.0f);
}

TEST(Conv2D, GradientCheckInput) {
  Rng rng(6);
  Conv2D conv(2, 3, 3, 3, 2, 1, rng);
  CheckInputGradient(conv, Tensor::Randn({2, 6, 5}, rng, 1.0f));
}

TEST(Conv2D, GradientCheckParams) {
  Rng rng(7);
  Conv2D conv(2, 2, 1, 3, 1, 1, rng);
  CheckParamGradients(conv, Tensor::Randn({2, 4, 6}, rng, 1.0f));
}

TEST(Conv2D, RejectsEvenKernel) {
  Rng rng(8);
  EXPECT_THROW(Conv2D(1, 1, 2, 3, 1, 1, rng), CheckError);
}

TEST(Conv2D, RejectsWrongInputChannels) {
  Rng rng(9);
  Conv2D conv(2, 2, 3, 3, 1, 1, rng);
  Tensor in = Tensor::Randn({3, 4, 4}, rng, 1.0f);
  EXPECT_THROW(conv.Forward(in), CheckError);
}

TEST(Conv2D, ReportsMacs) {
  Rng rng(10);
  Conv2D conv(2, 4, 3, 3, 1, 1, rng);
  EXPECT_EQ(conv.LastForwardMacs(), 0u);
  conv.Forward(Tensor::Randn({2, 5, 5}, rng, 1.0f));
  EXPECT_EQ(conv.LastForwardMacs(), 4u * 25u * (2u * 9u));
}

// ------------------------------------------------------------------ Linear

TEST(Linear, KnownResult) {
  Rng rng(11);
  Linear fc(2, 2, rng);
  fc.weight().value.At(0, 0) = 1.0f;
  fc.weight().value.At(0, 1) = 2.0f;
  fc.weight().value.At(1, 0) = -1.0f;
  fc.weight().value.At(1, 1) = 0.5f;
  fc.bias().value[0] = 0.1f;
  fc.bias().value[1] = -0.1f;
  Tensor in({1, 2});
  in[0] = 3.0f;
  in[1] = 4.0f;
  Tensor out = fc.Forward(in);
  EXPECT_NEAR(out[0], 3.0f + 8.0f + 0.1f, 1e-5);
  EXPECT_NEAR(out[1], -3.0f + 2.0f - 0.1f, 1e-5);
}

TEST(Linear, GradientCheckInput) {
  Rng rng(12);
  Linear fc(7, 5, rng);
  CheckInputGradient(fc, Tensor::Randn({4, 7}, rng, 1.0f));
}

TEST(Linear, GradientCheckParams) {
  Rng rng(13);
  Linear fc(6, 4, rng);
  CheckParamGradients(fc, Tensor::Randn({3, 6}, rng, 1.0f));
}

TEST(Linear, RejectsWrongFeatureDim) {
  Rng rng(14);
  Linear fc(6, 4, rng);
  EXPECT_THROW(fc.Forward(Tensor::Randn({3, 5}, rng, 1.0f)), CheckError);
}

// -------------------------------------------------------------- Activations

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor in({4});
  in[0] = -1.0f;
  in[1] = 0.0f;
  in[2] = 2.0f;
  in[3] = -0.5f;
  Tensor out = relu.Forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu;
  Tensor in({3});
  in[0] = -1.0f;
  in[1] = 2.0f;
  in[2] = 3.0f;
  relu.Forward(in);
  Tensor g({3});
  g.Fill(1.0f);
  Tensor gi = relu.Backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 1.0f);
}

TEST(Sigmoid, GradientCheck) {
  Rng rng(15);
  Sigmoid s;
  CheckInputGradient(s, Tensor::Randn({2, 9}, rng, 1.0f), 1e-2);
}

TEST(Sigmoid, RangeAndMidpoint) {
  Sigmoid s;
  Tensor in({3});
  in[0] = 0.0f;
  in[1] = 100.0f;
  in[2] = -100.0f;
  Tensor out = s.Forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  EXPECT_NEAR(out[2], 0.0f, 1e-6);
}

// ------------------------------------------------------------------- LSTM

TEST(Lstm, OutputShapeAndRange) {
  Rng rng(17);
  Lstm lstm(6, 8, rng);
  Tensor in = Tensor::Randn({10, 6}, rng, 1.0f);
  Tensor out = lstm.Forward(in);
  ASSERT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 10u);
  EXPECT_EQ(out.dim(1), 8u);
  // h = o * tanh(c) ∈ (-1, 1).
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_GT(out[i], -1.0f);
    EXPECT_LT(out[i], 1.0f);
  }
}

TEST(Lstm, StatePropagatesAcrossTime) {
  Rng rng(18);
  Lstm lstm(2, 4, rng);
  // Same input at every step; outputs should differ between step 0 and 1
  // because hidden state accumulates.
  Tensor in({5, 2});
  in.Fill(0.7f);
  Tensor out = lstm.Forward(in);
  bool any_diff = false;
  for (std::size_t j = 0; j < 4; ++j) {
    if (std::abs(out.At(0, j) - out.At(1, j)) > 1e-6f) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Lstm, BackwardUnsupported) {
  Rng rng(19);
  Lstm lstm(2, 3, rng);
  lstm.Forward(Tensor::Randn({4, 2}, rng, 1.0f));
  EXPECT_THROW(lstm.Backward(Tensor({4, 3})), CheckError);
}

// ------------------------------------------------------- batched inference
//
// InferBatchInto must be bit-identical, per item, to slicing the batch and
// running the training path's Forward item by item — the contract runtime
// micro-batching builds on (layers.h). Randomized inputs, batch sizes
// 1 / 2 / 7.

// InferBatchInto into a fresh output tensor.
Tensor Infer(const Layer& layer, const Tensor& batch) {
  Tensor out;
  layer.InferBatchInto(batch, out);
  return out;
}

Tensor RandomBatch(const std::vector<std::size_t>& item_shape,
                   std::size_t batch, std::uint64_t seed) {
  std::vector<std::size_t> shape;
  shape.push_back(batch);
  shape.insert(shape.end(), item_shape.begin(), item_shape.end());
  Rng rng(seed);
  return Tensor::Randn(shape, rng, 1.0f);
}

Tensor SliceItem(const Tensor& batch, std::size_t b) {
  const std::vector<std::size_t> item_shape(batch.shape().begin() + 1,
                                            batch.shape().end());
  Tensor item(item_shape);
  std::copy(batch.data() + b * item.numel(),
            batch.data() + (b + 1) * item.numel(), item.data());
  return item;
}

// Also checks the Into form's storage contract: a warm output holding stale
// values is fully overwritten, and a shape-preserving layer (`in_place`)
// gives the same bits when it runs on its own input.
void ExpectBatchedMatchesForward(Layer& layer,
                                 const std::vector<std::size_t>& item_shape,
                                 std::uint64_t seed, bool in_place = false) {
  const Layer& shared = layer;
  for (const std::size_t b : {1u, 2u, 7u}) {
    const Tensor batch = RandomBatch(item_shape, b, seed + b);
    const Tensor out = Infer(shared, batch);
    ASSERT_EQ(out.dim(0), b);
    std::size_t off = 0;
    for (std::size_t i = 0; i < b; ++i) {
      const Tensor one = layer.Forward(SliceItem(batch, i));
      for (std::size_t j = 0; j < one.numel(); ++j, ++off) {
        ASSERT_EQ(out[off], one[j])
            << layer.Name() << " batch=" << b << " item=" << i
            << " elem=" << j;
      }
    }
    ASSERT_EQ(off, out.numel());

    Tensor warm(out.shape());
    warm.Fill(-7.0f);
    const float* storage = warm.data();
    shared.InferBatchInto(batch, warm);
    ASSERT_EQ(warm.data(), storage) << layer.Name() << " re-bound a warm out";
    for (std::size_t j = 0; j < out.numel(); ++j) {
      ASSERT_EQ(warm[j], out[j]) << layer.Name() << " warm elem=" << j;
    }
    if (in_place) {
      Tensor x = batch;
      shared.InferBatchInto(x, x);
      for (std::size_t j = 0; j < out.numel(); ++j) {
        ASSERT_EQ(x[j], out[j]) << layer.Name() << " in-place elem=" << j;
      }
    }
  }
}

TEST(InferBatch, Conv2DBitExactVsForward) {
  Rng rng(70);
  Conv2D plain(2, 3, 3, 3, 1, 1, rng);
  ExpectBatchedMatchesForward(plain, {2, 6, 5}, 700);
  Conv2D dilated(3, 2, 5, 1, 4, 1, rng);  // selector-style time dilation
  ExpectBatchedMatchesForward(dilated, {3, 12, 7}, 701);
  Conv2D wide(1, 4, 1, 7, 1, 1, rng);
  ExpectBatchedMatchesForward(wide, {1, 4, 11}, 702);
}

TEST(InferBatch, LinearBitExactVsForward) {
  Rng rng(71);
  Linear fc(9, 4, rng);
  ExpectBatchedMatchesForward(fc, {5, 9}, 710);
  Linear single(3, 6, rng);
  ExpectBatchedMatchesForward(single, {1, 3}, 711);
}

TEST(InferBatch, ActivationsBitExactVsForward) {
  ReLU relu;
  ExpectBatchedMatchesForward(relu, {3, 4, 5}, 720, /*in_place=*/true);
  Sigmoid sigmoid;
  ExpectBatchedMatchesForward(sigmoid, {2, 9}, 721, /*in_place=*/true);
}

TEST(InferBatchInto, MatchesForwardBitExact) {
  // Batched path vs the training path: same ComputeInto kernel, so the two
  // must agree to the bit (rules out FMA-contraction divergence between
  // codegen of the two call sites).
  Rng rng(74);
  Conv2D conv(2, 2, 3, 3, 2, 1, rng);
  const Tensor batch = RandomBatch({2, 5, 6}, 3, 740);
  const Tensor out = Infer(conv, batch);
  std::size_t off = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const Tensor fwd = conv.Forward(SliceItem(batch, i));
    for (std::size_t j = 0; j < fwd.numel(); ++j, ++off) {
      ASSERT_EQ(out[off], fwd[j]);
    }
  }
}

TEST(InferBatchInto, RejectsMissingBatchDim) {
  Rng rng(75);
  Conv2D conv(2, 2, 3, 3, 1, 1, rng);
  EXPECT_THROW(Infer(conv, Tensor::Randn({2, 4, 4}, rng, 1.0f)),
               CheckError);
  Linear fc(4, 2, rng);
  EXPECT_THROW(Infer(fc, Tensor::Randn({3, 4}, rng, 1.0f)), CheckError);
}

TEST(InferBatchInto, LstmKeepsThrowingDefault) {
  Rng rng(76);
  Lstm lstm(2, 3, rng);
  EXPECT_THROW(Infer(lstm, Tensor({2, 4, 2})), CheckError);
}

// ------------------------------------------- Conv2D vs the reference kernel
//
// The earlier direct kernel, loop for loop: channel-outermost, eight named
// vector accumulators per 8-vector block, a scalar loop for the rest of
// the row. The register-tiled ComputeInto must match it bit for bit, in
// every build, since the shadows depend on each output's exact addend
// sequence: ascending k from 0, then + bias.

#if defined(__AVX512F__)
typedef float RefVec __attribute__((vector_size(64), aligned(4)));
#elif defined(__AVX__)
typedef float RefVec __attribute__((vector_size(32), aligned(4)));
#else
typedef float RefVec __attribute__((vector_size(16), aligned(4)));
#endif
constexpr std::size_t kRefLanes = sizeof(RefVec) / sizeof(float);

RefVec LoadRefVec(const float* p) {
  RefVec v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

void StoreRefVec(float* p, RefVec v) { __builtin_memcpy(p, &v, sizeof(v)); }

struct ConvGeometry {
  std::size_t c_in, c_out, kh, kw, dh, dw;
};

Tensor ReferenceConv(Conv2D& conv, const ConvGeometry& g, const Tensor& in) {
  const std::size_t h = in.dim(1), w = in.dim(2);
  const std::size_t pad_h = g.dh * (g.kh - 1) / 2;
  const std::size_t pad_w = g.dw * (g.kw - 1) / 2;
  const std::size_t ph = h + 2 * pad_h, pw = w + 2 * pad_w;
  const std::size_t pixels = h * w;
  std::vector<float> scratch(g.c_in * ph * pw, 0.0f);
  for (std::size_t c = 0; c < g.c_in; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      std::memcpy(scratch.data() + ((c * ph) + y + pad_h) * pw + pad_w,
                  in.data() + (c * h + y) * w, w * sizeof(float));
    }
  }
  Tensor result({g.c_out, h, w});
  float* out = result.data();

  constexpr std::size_t kXBlock = 128;
  for (std::size_t m = 0; m < g.c_out; ++m) {
    float* om = out + m * pixels;
    const float* wm = conv.weight().value.data() + m * g.c_in * g.kh * g.kw;
    const float b = conv.bias().value[m];
    for (std::size_t y = 0; y < h; ++y) {
      float* dst = om + y * w;
      std::size_t xb = 0;
      constexpr std::size_t kVecBlock = 8 * kRefLanes;
      for (; xb + kVecBlock <= w; xb += kVecBlock) {
        RefVec a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
        std::size_t k = 0;
        for (std::size_t c = 0; c < g.c_in; ++c) {
          const float* chan = scratch.data() + c * ph * pw;
          for (std::size_t ky = 0; ky < g.kh; ++ky) {
            const float* row = chan + (y + ky * g.dh) * pw + xb;
            for (std::size_t kx = 0; kx < g.kw; ++kx, ++k) {
              const float wk = wm[k];
              const float* src = row + kx * g.dw;
              a0 += wk * LoadRefVec(src);
              a1 += wk * LoadRefVec(src + kRefLanes);
              a2 += wk * LoadRefVec(src + 2 * kRefLanes);
              a3 += wk * LoadRefVec(src + 3 * kRefLanes);
              a4 += wk * LoadRefVec(src + 4 * kRefLanes);
              a5 += wk * LoadRefVec(src + 5 * kRefLanes);
              a6 += wk * LoadRefVec(src + 6 * kRefLanes);
              a7 += wk * LoadRefVec(src + 7 * kRefLanes);
            }
          }
        }
        StoreRefVec(dst + xb, a0 + b);
        StoreRefVec(dst + xb + kRefLanes, a1 + b);
        StoreRefVec(dst + xb + 2 * kRefLanes, a2 + b);
        StoreRefVec(dst + xb + 3 * kRefLanes, a3 + b);
        StoreRefVec(dst + xb + 4 * kRefLanes, a4 + b);
        StoreRefVec(dst + xb + 5 * kRefLanes, a5 + b);
        StoreRefVec(dst + xb + 6 * kRefLanes, a6 + b);
        StoreRefVec(dst + xb + 7 * kRefLanes, a7 + b);
      }
      for (; xb < w; xb += kXBlock) {
        const std::size_t xn = std::min(kXBlock, w - xb);
        float acc[kXBlock] = {};
        std::size_t k = 0;
        for (std::size_t c = 0; c < g.c_in; ++c) {
          const float* chan = scratch.data() + c * ph * pw;
          for (std::size_t ky = 0; ky < g.kh; ++ky) {
            const float* row = chan + (y + ky * g.dh) * pw + xb;
            for (std::size_t kx = 0; kx < g.kw; ++kx, ++k) {
              const float wk = wm[k];
              const float* src = row + kx * g.dw;
              for (std::size_t i = 0; i < xn; ++i) acc[i] += wk * src[i];
            }
          }
        }
        for (std::size_t i = 0; i < xn; ++i) dst[xb + i] = acc[i] + b;
      }
    }
  }
  return result;
}

// Selector-like activations: signed values, exact zeros, and channels that
// went through a ReLU (about half their entries exactly 0).
Tensor MixedActivations(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(shape, rng, 1.0f);
  const std::size_t plane =
      shape[shape.size() - 2] * shape[shape.size() - 1];
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if ((i / plane) % 2 == 1) t[i] = std::max(0.0f, t[i]);
    if (i % 7 == 3) t[i] = 0.0f;
  }
  return t;
}

// Forward on each item and InferBatchInto on a batch of two must both equal
// the reference, bit for bit.
void ExpectConvMatchesReference(const ConvGeometry& g, std::size_t h,
                                std::size_t w, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << g.c_in << "->" << g.c_out << " " << g.kh << "x" << g.kw
               << " d" << g.dh << "," << g.dw << " h=" << h << " w=" << w);
  Rng rng(seed);
  Conv2D conv(g.c_in, g.c_out, g.kh, g.kw, g.dh, g.dw, rng);
  conv.bias().value = Tensor::Randn({g.c_out}, rng, 0.5f);
  const Tensor batch = MixedActivations({2, g.c_in, h, w}, seed + 1);
  const Tensor batched = Infer(conv, batch);
  for (std::size_t i = 0; i < 2; ++i) {
    const Tensor item = SliceItem(batch, i);
    const Tensor want = ReferenceConv(conv, g, item);
    const Tensor fwd = conv.Forward(item);
    for (std::size_t j = 0; j < want.numel(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(fwd[j]),
                std::bit_cast<std::uint32_t>(want[j]))
          << "Forward item " << i << " elem " << j;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(batched[i * want.numel() + j]),
                std::bit_cast<std::uint32_t>(want[j]))
          << "InferBatchInto item " << i << " elem " << j;
    }
  }
}

// The selector's conv stack (core/selector.cpp) at channel width C.
void ExpectSelectorStackMatchesReference(std::size_t C, std::size_t h,
                                         std::size_t w, std::uint64_t seed) {
  ExpectConvMatchesReference({1, C, 1, 7, 1, 1}, h, w, seed);
  ExpectConvMatchesReference({C, C, 7, 1, 1, 1}, h, w, seed + 10);
  for (const std::size_t d : {1u, 2u, 4u, 8u}) {
    ExpectConvMatchesReference({C, C, 5, 5, d, 1}, h, w, seed + 20 + d);
  }
  ExpectConvMatchesReference({C, 2, 5, 5, 1, 1}, h, w, seed + 30);
}

TEST(Conv2DReference, FastSelectorLayersBitIdentical) {
  ExpectSelectorStackMatchesReference(16, 24, 129, 800);
}

TEST(Conv2DReference, TinySelectorLayersBitIdentical) {
  ExpectSelectorStackMatchesReference(6, 24, 129, 810);
}

TEST(Conv2DReference, PaperWidthLayersBitIdentical) {
  ExpectSelectorStackMatchesReference(64, 3, 601, 820);
}

TEST(Conv2DReference, EveryTileRemainderAndRowTail) {
  // Channel counts hit every leftover tile; widths cover the row tails of
  // 4-, 8- and 16-lane builds.
  std::uint64_t seed = 830;
  for (const std::size_t c_out : {1u, 2u, 3u, 5u, 6u, 7u, 16u}) {
    for (const std::size_t w :
         {1u, 3u, 4u, 5u, 15u, 16u, 17u, 47u, 48u, 49u, 129u, 601u}) {
      ExpectConvMatchesReference({3, c_out, 3, 5, 2, 1}, 4, w, ++seed);
    }
  }
}

TEST(Conv2DReference, HaloTallerThanTheInput) {
  // Dilation 8 on a 5-tap kernel pads 16 rows on each side of a 3-row
  // input: most taps of every output read only padding.
  ExpectConvMatchesReference({4, 6, 5, 5, 8, 1}, 3, 49, 850);
  ExpectConvMatchesReference({4, 16, 5, 5, 8, 1}, 3, 129, 851);
}

TEST(Conv2DReference, CancellingTermsPinTheTapOrder) {
  // On ordinary inputs the rounding of a reordered sum rarely shows. It
  // does when large terms cancel: the centre taps of channels 0 and 1 carry
  // weights +B and -B, and both channels hold the same input, so the two
  // big products cancel exactly, while the small taps added between them
  // round at B's scale. The output then depends on the order of every
  // addition: reversing the k chain, adding the bias first, or summing
  // channels as separate partial sums each changes bits.
  const ConvGeometry g{2, 7, 3, 3, 2, 1};
  Rng rng(860);
  Conv2D conv(g.c_in, g.c_out, g.kh, g.kw, g.dh, g.dw, rng);
  conv.bias().value = Tensor::Randn({g.c_out}, rng, 0.5f);
  const float big = 1048576.0f;  // 2^20: a float ulp of 1/8 at B
  const std::size_t taps = g.c_in * g.kh * g.kw, centre = taps / 4;
  for (std::size_t m = 0; m < g.c_out; ++m) {
    conv.weight().value[m * taps + centre] = big;
    conv.weight().value[m * taps + taps / 2 + centre] = -big;
  }
  const std::size_t h = 5, w = 37;
  Tensor in = MixedActivations({g.c_in, h, w}, 861);
  std::copy(in.data(), in.data() + h * w, in.data() + h * w);
  const Tensor want = ReferenceConv(conv, g, in);
  const Tensor got = conv.Forward(in);
  for (std::size_t j = 0; j < want.numel(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j]),
              std::bit_cast<std::uint32_t>(want[j]))
        << "elem " << j;
  }
}

// ------------------------------------------------------------- MAC audits

TEST(LastForwardMacs, ActivationsAndNormReportElementCount) {
  Rng rng(78);
  const Tensor in = Tensor::Randn({3, 4, 5}, rng, 1.0f);
  ReLU relu;
  EXPECT_EQ(relu.LastForwardMacs(), 0u);
  relu.Forward(in);
  EXPECT_EQ(relu.LastForwardMacs(), 60u);
  Sigmoid sig;
  sig.Forward(in);
  EXPECT_EQ(sig.LastForwardMacs(), 60u);
}

}  // namespace
}  // namespace nec::nn
