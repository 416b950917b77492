// Tests for the Selector DNN: architecture contract, gradients,
// serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/check.h"
#include "common/rng.h"
#include "core/selector.h"
#include "nn/loss.h"

namespace nec::core {
namespace {

NecConfig TinyConfig() {
  NecConfig cfg;
  cfg.stft = {.fft_size = 64, .win_length = 64, .hop_length = 32};
  cfg.conv_channels = 4;
  cfg.fc_hidden = 16;
  cfg.embedding_dim = 8;
  return cfg;
}

nn::Tensor RandomSpec(std::size_t T, std::size_t F, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t({T, F});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = std::abs(rng.GaussianF(0.0f, 0.5f));
  }
  return t;
}

std::vector<float> RandomDvec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> d(dim);
  for (float& v : d) v = rng.GaussianF();
  return d;
}

TEST(Selector, OutputShapeMatchesInput) {
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  const nn::Tensor in = RandomSpec(12, cfg.num_bins(), 1);
  const nn::Tensor out =
      sel.Forward(in, RandomDvec(cfg.embedding_dim, 2), false);
  ASSERT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 12u);
  EXPECT_EQ(out.dim(1), cfg.num_bins());
}

dsp::Spectrogram RandomSpectrogram(std::size_t T, std::size_t F,
                                   std::uint64_t seed) {
  Rng rng(seed);
  dsp::Spectrogram spec(T, F);
  for (auto& m : spec.mag()) m = std::abs(rng.GaussianF(0.0f, 0.5f));
  return spec;
}

std::vector<float> ComputeShadowValue(const Selector& sel,
                                      const dsp::Spectrogram& spec,
                                      const std::vector<float>& dvec) {
  std::vector<float> out;
  sel.ComputeShadowInto(spec, dvec, out);
  return out;
}

// The reference the inference path must match bit for bit: the training
// path's Forward wrapped in ComputeShadowInto's per-instance gain
// normalization.
std::vector<float> ForwardShadow(Selector& sel, const dsp::Spectrogram& spec,
                                 const std::vector<float>& dvec) {
  const std::vector<float>& mag = spec.mag();
  double acc = 0.0;
  for (float m : mag) acc += static_cast<double>(m) * m;
  const float rms = static_cast<float>(
      std::sqrt(acc / std::max<std::size_t>(1, mag.size())));
  const float gain = rms > 1e-9f ? 1.0f / rms : 1.0f;
  nn::Tensor in({spec.num_frames(), spec.num_bins()});
  for (std::size_t i = 0; i < in.numel(); ++i) in[i] = mag[i] * gain;
  const nn::Tensor shadow = sel.Forward(in, dvec, false);
  std::vector<float> out(shadow.numel());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = shadow[i] / gain;
  return out;
}

TEST(Selector, ComputeShadowIntoMatchesForwardBitExact) {
  // ComputeShadowInto is the const, cache-free path nec::runtime sessions
  // run concurrently on shared weights; it must never diverge from the
  // training path's Forward by even one ulp.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  const auto dvec = RandomDvec(cfg.embedding_dim, 21);
  for (std::size_t T : {1u, 7u, 24u}) {
    const dsp::Spectrogram spec = RandomSpectrogram(T, cfg.num_bins(), 90 + T);
    const std::vector<float> fwd = ForwardShadow(sel, spec, dvec);
    const Selector& shared = sel;  // const access only, as the runtime sees it
    const std::vector<float> inf = ComputeShadowValue(shared, spec, dvec);
    ASSERT_EQ(fwd.size(), inf.size());
    for (std::size_t i = 0; i < fwd.size(); ++i) {
      ASSERT_EQ(fwd[i], inf[i]) << "T=" << T << " i=" << i;
    }
  }
}

TEST(Selector, ComputeShadowIntoWritesNoObservableState) {
  // Running inference between a Forward and its MAC query must not disturb
  // the training-path bookkeeping.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  const auto dvec = RandomDvec(cfg.embedding_dim, 22);
  sel.Forward(RandomSpec(6, cfg.num_bins(), 70), dvec, false);
  const std::size_t macs_before = sel.LastForwardMacs();
  const Selector& shared = sel;
  ComputeShadowValue(shared, RandomSpectrogram(30, cfg.num_bins(), 71), dvec);
  EXPECT_EQ(sel.LastForwardMacs(), macs_before);
}

TEST(Selector, ComputeShadowBatchMatchesForwardBitExact) {
  // The micro-batching dispatcher (runtime/batcher.h) replaces N per-chunk
  // forwards with one batch; every session's shadow must keep its exact
  // bits.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 61);
  const Selector& shared = sel;
  for (const std::size_t B : {1u, 2u, 7u}) {
    std::vector<dsp::Spectrogram> specs;
    std::vector<std::vector<float>> dvecs;
    for (std::size_t b = 0; b < B; ++b) {
      specs.push_back(RandomSpectrogram(11, cfg.num_bins(), 600 + 10 * B + b));
      dvecs.push_back(RandomDvec(cfg.embedding_dim, 900 + 10 * B + b));
    }
    std::vector<const dsp::Spectrogram*> spec_ptrs;
    std::vector<const std::vector<float>*> dvec_ptrs;
    for (std::size_t b = 0; b < B; ++b) {
      spec_ptrs.push_back(&specs[b]);
      dvec_ptrs.push_back(&dvecs[b]);
    }
    const auto batched = shared.ComputeShadowBatch(spec_ptrs, dvec_ptrs);
    ASSERT_EQ(batched.size(), B);
    for (std::size_t b = 0; b < B; ++b) {
      const std::vector<float> one = ForwardShadow(sel, specs[b], dvecs[b]);
      ASSERT_EQ(batched[b].size(), one.size());
      for (std::size_t i = 0; i < one.size(); ++i) {
        ASSERT_EQ(batched[b][i], one[i])
            << "B=" << B << " item=" << b << " i=" << i;
      }
    }
  }
}

TEST(Selector, ComputeShadowBatchHandlesDistinctDvectorsPerItem) {
  // Items with different speaker conditioning must not bleed into each
  // other: item i's batched output equals its solo output even when the
  // neighbours carry very different d-vectors.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 62);
  const dsp::Spectrogram spec = RandomSpectrogram(8, cfg.num_bins(), 620);
  const auto d1 = RandomDvec(cfg.embedding_dim, 621);
  auto d2 = d1;
  for (float& v : d2) v = -3.0f * v;
  const auto batched = sel.ComputeShadowBatch({&spec, &spec}, {&d1, &d2});
  const std::vector<float> solo1 = ComputeShadowValue(sel, spec, d1);
  const std::vector<float> solo2 = ComputeShadowValue(sel, spec, d2);
  double diff = 0.0;
  for (std::size_t i = 0; i < solo1.size(); ++i) {
    ASSERT_EQ(batched[0][i], solo1[i]);
    ASSERT_EQ(batched[1][i], solo2[i]);
    diff += std::abs(static_cast<double>(solo1[i]) - solo2[i]);
  }
  EXPECT_GT(diff, 1e-3);  // the conditioning actually differed
}

TEST(Selector, ComputeShadowBatchRejectsMismatchedInputs) {
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 63);
  const dsp::Spectrogram a = RandomSpectrogram(6, cfg.num_bins(), 630);
  // Frame mismatch.
  const dsp::Spectrogram b = RandomSpectrogram(7, cfg.num_bins(), 631);
  const auto d = RandomDvec(cfg.embedding_dim, 632);
  EXPECT_THROW(sel.ComputeShadowBatch({&a, &b}, {&d, &d}), nec::CheckError);
  EXPECT_THROW(sel.ComputeShadowBatch({}, {}), nec::CheckError);
  EXPECT_THROW(sel.ComputeShadowBatch({&a, &a}, {&d}), nec::CheckError);
}

TEST(Selector, ComputeShadowBatchMatchesLoopedComputeShadowInto) {
  // ComputeShadowInto is the batched core at B = 1; it must reproduce the
  // matching item of a larger batch bit-for-bit.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 64);
  Rng rng(640);
  std::vector<dsp::Spectrogram> specs;
  std::vector<std::vector<float>> dvecs;
  for (std::size_t b = 0; b < 3; ++b) {
    dsp::Spectrogram spec(9, cfg.num_bins());
    for (auto& m : spec.mag()) m = std::abs(rng.GaussianF(0.0f, 0.4f));
    specs.push_back(std::move(spec));
    dvecs.push_back(RandomDvec(cfg.embedding_dim, 650 + b));
  }
  std::vector<const dsp::Spectrogram*> spec_ptrs;
  std::vector<const std::vector<float>*> dvec_ptrs;
  for (std::size_t b = 0; b < 3; ++b) {
    spec_ptrs.push_back(&specs[b]);
    dvec_ptrs.push_back(&dvecs[b]);
  }
  const auto batched = sel.ComputeShadowBatch(spec_ptrs, dvec_ptrs);
  ASSERT_EQ(batched.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    const auto one = ComputeShadowValue(sel, specs[b], dvecs[b]);
    ASSERT_EQ(batched[b].size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      ASSERT_EQ(batched[b][i], one[i]) << "item=" << b << " i=" << i;
    }
  }
}

TEST(Selector, HandlesVariableFrameCounts) {
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  const auto dvec = RandomDvec(cfg.embedding_dim, 3);
  for (std::size_t T : {1u, 5u, 33u}) {
    const nn::Tensor out =
        sel.Forward(RandomSpec(T, cfg.num_bins(), T), dvec, false);
    EXPECT_EQ(out.dim(0), T);
  }
}

TEST(Selector, DvectorChangesOutput) {
  // The speaker conditioning must actually reach the output.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  const nn::Tensor in = RandomSpec(8, cfg.num_bins(), 4);
  const nn::Tensor a = sel.Forward(in, RandomDvec(cfg.embedding_dim, 5),
                                   false);
  const nn::Tensor b = sel.Forward(in, RandomDvec(cfg.embedding_dim, 6),
                                   false);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    diff += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(Selector, ArchitectureMatchesPaper) {
  // Fig. 7's stack: 1x7 conv, 7x1 conv, four dilated 5x5 convs, the
  // 2-channel projection conv, then two FC layers — 9 parameterized
  // layers, each with a weight and a bias.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  EXPECT_EQ(sel.Params().size(), 18u);
}

TEST(Selector, RejectsWrongInputShapes) {
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  EXPECT_THROW(sel.Forward(RandomSpec(4, cfg.num_bins() + 1, 7),
                           RandomDvec(cfg.embedding_dim, 8), false),
               nec::CheckError);
  EXPECT_THROW(sel.Forward(RandomSpec(4, cfg.num_bins(), 9),
                           RandomDvec(cfg.embedding_dim + 1, 10), false),
               nec::CheckError);
}

TEST(Selector, GradientCheckThroughWholeNetwork) {
  // Finite-difference check of dLoss/dParam for a sample of parameters,
  // through conv stack, concat and FC head.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 77);
  const nn::Tensor in = RandomSpec(5, cfg.num_bins(), 11);
  const auto dvec = RandomDvec(cfg.embedding_dim, 12);
  Rng rng(13);
  nn::Tensor probe;

  auto loss_fn = [&]() {
    const nn::Tensor out = sel.Forward(in, dvec, true);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i) acc += out[i] * probe[i];
    return static_cast<float>(acc);
  };

  // Build the probe from the first forward's shape.
  {
    const nn::Tensor out = sel.Forward(in, dvec, true);
    probe = nn::Tensor::Randn(out.shape(), rng, 1.0f);
  }

  // Analytic gradients.
  for (nn::Param* p : sel.Params()) p->ZeroGrad();
  loss_fn();
  sel.Backward(probe);

  // Per-coordinate finite differences are noisy through seven ReLU layers
  // (kinks bias the central difference), so compare the *direction* of the
  // sampled numeric gradient against the analytic one: cosine similarity
  // must be high. Exact per-layer gradient checks live in test_layers.
  const float eps = 1e-2f;
  auto params = sel.Params();
  double dot = 0.0, na = 0.0, nn_ = 0.0;
  for (std::size_t pi = 0; pi < params.size(); pi += 3) {
    nn::Param* p = params[pi];
    const std::size_t stride =
        std::max<std::size_t>(1, p->value.numel() / 5);
    for (std::size_t i = 0; i < p->value.numel(); i += stride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float lp = loss_fn();
      p->value[i] = saved - eps;
      const float lm = loss_fn();
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2.0f * eps);
      const double analytic = p->grad[i];
      dot += numeric * analytic;
      na += analytic * analytic;
      nn_ += numeric * numeric;
    }
  }
  const double cosine = dot / std::sqrt(na * nn_ + 1e-30);
  EXPECT_GT(cosine, 0.95);
}

TEST(Selector, SaveLoadRoundTrip) {
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 31);
  const std::string path =
      (std::filesystem::temp_directory_path() / "nec_selector_test.necm")
          .string();
  sel.Save(path);
  Selector loaded = Selector::Load(path);
  EXPECT_EQ(loaded.config().conv_channels, cfg.conv_channels);
  EXPECT_EQ(loaded.config().stft.fft_size, cfg.stft.fft_size);

  const nn::Tensor in = RandomSpec(6, cfg.num_bins(), 21);
  const auto dvec = RandomDvec(cfg.embedding_dim, 22);
  const nn::Tensor a = sel.Forward(in, dvec, false);
  const nn::Tensor b = loaded.Forward(in, dvec, false);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Selector, ComputeShadowIsGainEquivariant) {
  // Scaling the input spectrogram by g scales the shadow by g (the
  // per-instance normalization makes the mapping homogeneous) — required
  // for the monitor-to-recorder scale transfer.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 41);
  dsp::Spectrogram spec(6, cfg.num_bins());
  Rng rng(42);
  for (auto& m : spec.mag()) m = std::abs(rng.GaussianF(0.0f, 0.4f));
  const auto dvec = RandomDvec(cfg.embedding_dim, 43);

  const auto shadow1 = ComputeShadowValue(sel, spec, dvec);
  dsp::Spectrogram scaled = spec;
  for (auto& m : scaled.mag()) m *= 2.5f;
  const auto shadow2 = ComputeShadowValue(sel, scaled, dvec);
  for (std::size_t i = 0; i < shadow1.size(); i += 17) {
    EXPECT_NEAR(shadow2[i], 2.5f * shadow1[i],
                2e-2f * (1.0f + std::abs(shadow1[i])));
  }
}

TEST(Selector, ReportsMacsAfterForward) {
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg);
  sel.Forward(RandomSpec(10, cfg.num_bins(), 51),
              RandomDvec(cfg.embedding_dim, 52), false);
  EXPECT_GT(sel.LastForwardMacs(), 100000u);
}


TEST(Selector, PaperConfigurationForwardPass) {
  // The paper's full 601-bin geometry must be constructible and runnable
  // (training at that size is a GPU job, but inference is supported).
  const NecConfig cfg = NecConfig::Paper();
  EXPECT_EQ(cfg.num_bins(), 601u);
  Selector sel(cfg, 3);
  Rng rng(4);
  nn::Tensor in({6, 601});
  for (std::size_t i = 0; i < in.numel(); ++i) {
    in[i] = std::abs(rng.GaussianF(0.0f, 0.3f));
  }
  std::vector<float> dvec(cfg.embedding_dim, 0.1f);
  const nn::Tensor out = sel.Forward(in, dvec, false);
  EXPECT_EQ(out.dim(0), 6u);
  EXPECT_EQ(out.dim(1), 601u);
}

TEST(Selector, MaskBoundsTheShadow) {
  // The masked head guarantees |shadow| <= S_mixed per cell — the record
  // spectrogram can never go negative.
  const NecConfig cfg = TinyConfig();
  Selector sel(cfg, 5);
  const nn::Tensor in = RandomSpec(9, cfg.num_bins(), 31);
  const nn::Tensor out =
      sel.Forward(in, RandomDvec(cfg.embedding_dim, 32), false);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_LE(out[i], 0.0f);
    EXPECT_GE(out[i], -in[i] - 1e-6f);
  }
}

}  // namespace
}  // namespace nec::core
