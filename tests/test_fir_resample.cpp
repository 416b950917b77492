// Tests for FIR design/convolution and the polyphase resampler — the 16 kHz
// ↔ 192 kHz conversions the ultrasound channel depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>

#include "common/check.h"
#include "dsp/fir.h"
#include "dsp/resample.h"

namespace nec::dsp {
namespace {

audio::Waveform Tone(int rate, double f, double seconds) {
  audio::Waveform w(rate, static_cast<std::size_t>(rate * seconds));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(std::sin(2.0 * std::numbers::pi * f * i / rate));
  }
  return w;
}

// Noise with a silent run and full-scale spikes: exercises zero products,
// and accumulators that cross zero.
audio::Waveform MixedSignal(int rate, std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-0.9f, 0.9f);
  audio::Waveform w(rate, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= n / 4 && i < n / 2) continue;  // silent run
    w[i] = i % 97 == 5 ? (i % 2 ? 3.0f : -3.0f) : dist(rng);
  }
  return w;
}

void ExpectBitIdentical(const audio::Waveform& got,
                        const audio::Waveform& want) {
  ASSERT_EQ(got.sample_rate(), want.sample_rate());
  ASSERT_EQ(got.size(), want.size());
  if (std::memcmp(got.data().data(), want.data().data(),
                  want.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.data()[i], &want.data()[i], sizeof(float)), 0)
        << "first differing sample " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

// The tap-by-tap polyphase walk the phase-major kernel replaced, kept
// verbatim as its bitwise reference (one signed divide and two bounds
// branches per tap).
void ReferencePolyphaseFilter(const audio::Waveform& input,
                              const ResamplerPlan& plan,
                              audio::Waveform& out) {
  const std::size_t L = plan.up;
  const std::size_t M = plan.down;
  const std::vector<float>& taps = plan.taps;

  // Polyphase decomposition: tap j belongs to phase j % L. Output sample n
  // lands at upsampled index u = n*M; contribution comes from input samples
  // k with u - k*L inside the kernel. Gain L compensates zero-stuffing loss.
  const std::size_t out_len =
      (input.size() * L + M - 1) / M;  // ceil(input*L/M)
  out.AssignSilence(plan.target_rate, out_len);
  const auto x = input.samples();
  const std::ptrdiff_t delay =
      static_cast<std::ptrdiff_t>(taps.size() / 2);  // group delay
  const float gain = static_cast<float>(L);

  for (std::size_t n = 0; n < out_len; ++n) {
    // Upsampled-domain index of this output sample, shifted by the filter's
    // group delay so output is time-aligned with input.
    const std::ptrdiff_t u = static_cast<std::ptrdiff_t>(n * M) + delay;
    // Find smallest j >= 0 with (u - j) % L == 0 → input index k=(u-j)/L.
    const std::size_t phase = static_cast<std::size_t>(u % L);
    double acc = 0.0;
    for (std::size_t j = phase; j < taps.size(); j += L) {
      const std::ptrdiff_t k = (u - static_cast<std::ptrdiff_t>(j)) /
                               static_cast<std::ptrdiff_t>(L);
      if (k < 0) break;
      if (k >= static_cast<std::ptrdiff_t>(x.size())) continue;
      acc += static_cast<double>(taps[j]) * x[static_cast<std::size_t>(k)];
    }
    out[n] = gain * static_cast<float>(acc);
  }
}

double ToneRms(const audio::Waveform& w, std::size_t skip) {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = skip; i + skip < w.size(); ++i, ++n) {
    acc += static_cast<double>(w[i]) * w[i];
  }
  return std::sqrt(acc / std::max<std::size_t>(1, n));
}

TEST(Fir, UnitDcGain) {
  const auto taps = DesignFirLowPass(63, 2000.0, 16000.0);
  double sum = 0.0;
  for (float t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Fir, EvenTapCountBumpedToOdd) {
  const auto taps = DesignFirLowPass(64, 2000.0, 16000.0);
  EXPECT_EQ(taps.size() % 2, 1u);
}

TEST(Fir, SymmetricKernel) {
  const auto taps = DesignFirLowPass(101, 3000.0, 16000.0);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-7);
  }
}

TEST(Fir, RejectsBadCutoff) {
  EXPECT_THROW(DesignFirLowPass(63, 9000.0, 16000.0), nec::CheckError);
  EXPECT_THROW(DesignFirLowPass(63, 0.0, 16000.0), nec::CheckError);
}

TEST(Convolve, KnownResult) {
  const std::vector<float> x = {1, 2, 3};
  const std::vector<float> h = {1, 1};
  const auto y = Convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
  EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(Convolve, EmptyInputs) {
  EXPECT_TRUE(Convolve({}, std::vector<float>{1.0f}).empty());
  EXPECT_TRUE(Convolve(std::vector<float>{1.0f}, {}).empty());
}

TEST(ConvolveSame, PreservesLengthAndCentering) {
  std::vector<float> x(64, 0.0f);
  x[32] = 1.0f;  // impulse at center
  const auto taps = DesignFirLowPass(15, 4000.0, 16000.0);
  const auto y = ConvolveSame(x, taps);
  ASSERT_EQ(y.size(), x.size());
  std::size_t peak = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_EQ(peak, 32u);  // group delay compensated
}

TEST(Resample, IdentityRateReturnsCopy) {
  const audio::Waveform w = Tone(16000, 440.0, 0.1);
  const audio::Waveform r = Resample(w, 16000);
  ASSERT_EQ(r.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(r[i], w[i]);
}

class ResampleRateTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ResampleRateTest, TonePreservedThroughConversion) {
  const auto [src, dst] = GetParam();
  const audio::Waveform w = Tone(src, 1000.0, 0.25);
  const audio::Waveform r = Resample(w, dst);
  EXPECT_EQ(r.sample_rate(), dst);
  EXPECT_NEAR(static_cast<double>(r.size()),
              static_cast<double>(w.size()) * dst / src, 16.0);
  EXPECT_NEAR(ToneRms(r, static_cast<std::size_t>(dst) / 100),
              1.0 / std::sqrt(2.0), 0.03);
}

TEST_P(ResampleRateTest, BitIdenticalToTapWalkReference) {
  // Lengths below, at and just above 16k -> 192k's 24-25 taps per phase
  // give edge-only outputs; 16000/16001 a whole chunk with and without a
  // partial lane block.
  const auto [src, dst] = GetParam();
  ResamplerPlan warm;
  audio::Waveform got;
  for (const std::size_t n : {1u, 2u, 24u, 25u, 26u, 300u, 16000u, 16001u}) {
    SCOPED_TRACE(::testing::Message() << "length " << n);
    const audio::Waveform x = MixedSignal(src, n, static_cast<unsigned>(n));
    ResamplerPlan ref_plan;
    ref_plan.Bind(src, dst, 24);
    audio::Waveform want;
    ReferencePolyphaseFilter(x, ref_plan, want);
    ExpectBitIdentical(Resample(x, dst), want);
    ResampleInto(x, dst, warm, got);
    ExpectBitIdentical(got, want);
  }
}

TEST(Resample, CancellingSpikesPinTheTapOrder) {
  // On ordinary signals the double accumulator's rounding never reaches the
  // float output, so any summation order would pass the test above. It does
  // when large terms cancel: phase 0 of 16k -> 192k holds equal taps t and
  // T - 1 - t, and a +B / -B pair on their inputs cancels exactly, so the
  // small terms added between them round at B's scale. The output then
  // depends on the order of the additions, which must stay ascending.
  ResamplerPlan plan;
  plan.Bind(16000, 192000, 24);
  const std::size_t L = plan.up;
  const std::size_t T = (plan.taps.size() + L - 1) / L;  // phase 0's taps
  ASSERT_EQ((plan.taps.size() - 1) % L, 0u);  // phase 0 mirrors onto itself
  // The equal pair nearest the centre: the largest taps, so B * tap is
  // large enough (2^40 * ~0.07) for its rounding to show in float.
  std::size_t t1 = T / 2;
  while (t1 > 0 && plan.taps[(t1 - 1) * L] != plan.taps[(T - t1) * L]) {
    --t1;
  }
  ASSERT_GT(t1, 0u) << "no equal tap pair in phase 0";
  --t1;
  const std::size_t d = T - 1 - 2 * t1;
  const float big = 1099511627776.0f;  // 2^40
  audio::Waveform x = MixedSignal(16000, 16000, 5);
  for (std::size_t k = 3; k + d < x.size(); k += 97) {
    x[k] = big;
    x[k + d] = -big;
  }
  audio::Waveform want;
  ReferencePolyphaseFilter(x, plan, want);
  ExpectBitIdentical(Resample(x, 192000), want);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, ResampleRateTest,
    ::testing::Values(std::pair{16000, 192000}, std::pair{192000, 16000},
                      std::pair{16000, 48000}, std::pair{48000, 16000},
                      std::pair{16000, 44100}, std::pair{44100, 16000}));

TEST(Resample, RoundTrip16kTo192kAndBack) {
  const audio::Waveform w = Tone(16000, 700.0, 0.3);
  const audio::Waveform up = Resample(w, 192000);
  const audio::Waveform back = Resample(up, 16000);
  // Group delay is compensated, so samples line up directly.
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 500; i + 500 < w.size() && i < back.size(); ++i) {
    const double d = back[i] - w[i];
    err += d * d;
    ref += static_cast<double>(w[i]) * w[i];
  }
  EXPECT_LT(err / ref, 1e-3);
}

TEST(Resample, DecimationRejectsAliases) {
  // A 40 kHz tone at 192 kHz must vanish when decimated to 16 kHz
  // (Nyquist 8 kHz) rather than aliasing into the audible band.
  const audio::Waveform w = Tone(192000, 40000.0, 0.1);
  const audio::Waveform down = Resample(w, 16000);
  EXPECT_LT(ToneRms(down, 200), 0.01);
}

TEST(Resample, UpsamplingAddsNoImages) {
  const audio::Waveform w = Tone(16000, 1000.0, 0.2);
  const audio::Waveform up = Resample(w, 192000);
  EXPECT_NEAR(ToneRms(up, 2000), 1.0 / std::sqrt(2.0), 0.02);
}

TEST(Resample, EmptyInput) {
  audio::Waveform w(16000, std::size_t{0});
  const audio::Waveform r = Resample(w, 48000);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.sample_rate(), 48000);
}

TEST(Resample, RejectsBadRates) {
  const audio::Waveform w = Tone(16000, 440.0, 0.05);
  EXPECT_THROW(Resample(w, 0), nec::CheckError);
  EXPECT_THROW(Resample(w, -8000), nec::CheckError);
}

}  // namespace
}  // namespace nec::dsp
