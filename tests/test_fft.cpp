// Tests for the FFT kernels: radix-2, Bluestein (arbitrary sizes including
// the paper's 1200-point transform), real-FFT wrappers, and the
// lane-blocked radix-2 kernel against the unplanned reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "dsp/fft.h"

namespace nec::dsp {
namespace {

using Cf = std::complex<float>;

std::vector<Cf> NaiveDft(const std::vector<Cf>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<Cf> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi * k * j / n;
      acc += std::complex<double>(x[j]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    if (inverse) acc /= static_cast<double>(n);
    out[k] = Cf(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
  return out;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(1200));
  EXPECT_EQ(NextPowerOfTwo(1200), 2048u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Cf> x(n);
  for (Cf& v : x) v = Cf(rng.GaussianF(), rng.GaussianF());
  const auto expected = NaiveDft(x, false);
  std::vector<Cf> got = x;
  Fft(got, false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i].real(), expected[i].real(), 2e-3 * std::sqrt(n))
        << "bin " << i << " size " << n;
    EXPECT_NEAR(got[i].imag(), expected[i].imag(), 2e-3 * std::sqrt(n));
  }
}

TEST_P(FftSizeTest, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n * 3 + 1);
  std::vector<Cf> x(n);
  for (Cf& v : x) v = Cf(rng.GaussianF(), rng.GaussianF());
  std::vector<Cf> y = x;
  Fft(y, false);
  Fft(y, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-3);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-3);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n * 7 + 5);
  std::vector<Cf> x(n);
  double time_energy = 0.0;
  for (Cf& v : x) {
    v = Cf(rng.GaussianF(), 0.0f);
    time_energy += std::norm(std::complex<double>(v));
  }
  std::vector<Cf> y = x;
  Fft(y, false);
  double freq_energy = 0.0;
  for (const Cf& v : y) freq_energy += std::norm(std::complex<double>(v));
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-2 * time_energy + 1e-6);
}

// 1200 is the paper's FFT size; 601 = its bin count appears as an odd
// Bluestein size; the rest cover radix-2, odd, prime and composite sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 100, 120,
                                           601, 1200, 17, 97, 509, 1023));

// The plan cache must be a pure acceleration: a planned transform (cached
// twiddles / bit-reversal / chirp tables) has to produce the SAME BITS as
// the unplanned kernel it replaced, because the runtime's N-session audit
// compares streamed output sample-for-sample against a sequential rerun —
// any planned/unplanned divergence would show up there as a "race".
class FftPlannedBitExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlannedBitExact, ComplexBothDirections) {
  const std::size_t n = GetParam();
  Rng rng(n * 13 + 7);
  std::vector<Cf> x(n);
  for (Cf& v : x) v = Cf(rng.GaussianF(), rng.GaussianF());
  for (const bool inverse : {false, true}) {
    std::vector<Cf> planned = x;
    std::vector<Cf> unplanned = x;
    Fft(planned, inverse);  // routed through GetFftPlan
    detail::FftUnplanned(unplanned, inverse);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(planned[i].real(), unplanned[i].real())
          << "size " << n << " bin " << i << " inverse " << inverse;
      ASSERT_EQ(planned[i].imag(), unplanned[i].imag())
          << "size " << n << " bin " << i << " inverse " << inverse;
    }
  }
}

TEST_P(FftPlannedBitExact, RealWrappersMatchAllocatingPath) {
  const std::size_t n = GetParam();
  if (n < 4) return;  // RealFft rejects tiny nfft
  Rng rng(n * 5 + 1);
  std::vector<float> x(n);
  for (float& v : x) v = rng.GaussianF();

  const auto plain = RealFft(x, n);
  const auto plan = GetFftPlan(n);
  FftScratch scratch;
  std::vector<Cf> planned;
  RealFft(x, *plan, planned, scratch);
  ASSERT_EQ(planned.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(planned[i].real(), plain[i].real()) << "size " << n;
    ASSERT_EQ(planned[i].imag(), plain[i].imag()) << "size " << n;
  }

  const auto back_plain = InverseRealFft(plain, n);
  std::vector<float> back_planned;
  InverseRealFft(planned, *plan, back_planned, scratch);
  ASSERT_EQ(back_planned.size(), back_plain.size());
  for (std::size_t i = 0; i < back_plain.size(); ++i) {
    ASSERT_EQ(back_planned[i], back_plain[i]) << "size " << n;
  }
}

// Radix-2, the configured sizes (1200 paper / 256 Fast), odd, prime and
// composite Bluestein sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftPlannedBitExact,
                         ::testing::Values(2, 8, 256, 1024, 100, 120, 601,
                                           1200, 17, 97, 509));

// ------------------------------------------------------------ lane kernel

// Packs frames[first, first + kFftLanes) into TransformLanes' layout, in
// bit-reversed order. Lanes past the end take `filler` (their output is
// not checked, so they show only that lanes do not bleed into each other).
std::vector<float> PackLanes(const FftPlan& plan,
                             const std::vector<std::vector<Cf>>& frames,
                             std::size_t first, const std::vector<Cf>& filler) {
  const std::size_t n = plan.size(), L = kFftLanes;
  std::vector<float> block(2 * L * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::vector<Cf>& x =
          first + l < frames.size() ? frames[first + l] : filler;
      block[j * 2 * L + l] = x[plan.bitrev()[j]].real();
      block[j * 2 * L + L + l] = x[plan.bitrev()[j]].imag();
    }
  }
  return block;
}

// Transforms `frames` kFftLanes at a time and asserts every frame's output
// has the bits of the unplanned reference kernel.
void ExpectLanesMatchReference(const std::vector<std::vector<Cf>>& frames,
                               bool inverse, const std::vector<Cf>& filler) {
  const std::size_t n = frames.front().size(), L = kFftLanes;
  const auto plan = GetFftPlan(n);
  for (std::size_t first = 0; first < frames.size(); first += L) {
    std::vector<float> block = PackLanes(*plan, frames, first, filler);
    plan->TransformLanes(block.data(), inverse);
    for (std::size_t l = 0; l < L && first + l < frames.size(); ++l) {
      std::vector<Cf> want = frames[first + l];
      detail::FftUnplanned(want, inverse);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(block[k * 2 * L + l]),
                  std::bit_cast<std::uint32_t>(want[k].real()))
            << "n " << n << " frame " << first + l << " bin " << k
            << " inverse " << inverse;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(block[k * 2 * L + L + l]),
                  std::bit_cast<std::uint32_t>(want[k].imag()))
            << "n " << n << " frame " << first + l << " bin " << k
            << " inverse " << inverse;
      }
    }
  }
}

TEST(FftLanes, BitIdenticalToUnplannedReference) {
  // Every radix-2 size up to 4096, both directions, with block fills of
  // one frame, one short of a block, a full block and one past it.
  const std::size_t L = kFftLanes;
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    for (const std::size_t fill : {std::size_t{1}, L - 1, L, L + 1}) {
      Rng rng(n * 31 + fill);
      std::vector<std::vector<Cf>> frames(fill, std::vector<Cf>(n));
      for (auto& x : frames) {
        for (Cf& v : x) v = Cf(rng.GaussianF(), rng.GaussianF());
      }
      std::vector<Cf> filler(n);
      for (Cf& v : filler) v = Cf(rng.GaussianF(), rng.GaussianF());
      for (const bool inverse : {false, true}) {
        ExpectLanesMatchReference(frames, inverse, filler);
      }
    }
  }
}

TEST(FftLanes, CancellingValuesPinTheButterflyOrder) {
  // On random inputs the rounding of a reordered butterfly rarely shows.
  // These two frames make it show. In the first, 1 + 2^-30 is rounded to
  // float 1 after the first stage and then cancels against -1: the output
  // keeps 2^-30 if sums stay in double between stages. In the second, the
  // only nonzero input, (r, -r) forward or (r, r) inverse, meets the
  // twiddle cos(pi/4) -/+ i sin(pi/4) at the last stage, where the real
  // part of the product is r*c - r*s, two near-equal products that cancel:
  // a fused multiply-add keeps the rounding error of r*c and changes the
  // result's bits.
  const std::size_t n = 8;
  const float r = 1.0f / 3.0f;
  for (const bool inverse : {false, true}) {
    std::vector<Cf> storage(n), product(n);
    storage[0] = Cf(1.0f, 0.0f);
    storage[4] = Cf(std::ldexp(1.0f, -30), 0.0f);
    storage[2] = Cf(-1.0f, 0.0f);
    product[1] = Cf(r, inverse ? r : -r);
    std::vector<std::vector<Cf>> frames;
    for (std::size_t l = 0; l < kFftLanes; ++l) {
      frames.push_back(l % 2 == 0 ? storage : product);
    }
    ExpectLanesMatchReference(frames, inverse, storage);

    std::vector<Cf> want = storage;
    detail::FftUnplanned(want, inverse);
    EXPECT_EQ(want[0], Cf(0.0f, 0.0f)) << "the 2^-30 term must cancel";
  }
}

TEST(FftPlan, CacheReturnsSameInstance) {
  const auto a = GetFftPlan(1200);
  const auto b = GetFftPlan(1200);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(a->bluestein());
  EXPECT_EQ(a->size(), 1200u);
  EXPECT_FALSE(GetFftPlan(256)->bluestein());
}

TEST(FftPlan, ScratchReusableAcrossSizes) {
  // One FftScratch handed across transforms of different sizes — the
  // streaming rebinding case — must not corrupt results.
  FftScratch scratch;
  Rng rng(321);
  for (const std::size_t n : {1200u, 256u, 601u, 1200u}) {
    std::vector<float> x(n);
    for (float& v : x) v = rng.GaussianF();
    const auto plan = GetFftPlan(n);
    std::vector<Cf> half;
    RealFft(x, *plan, half, scratch);
    std::vector<float> back;
    InverseRealFft(half, *plan, back, scratch);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(back[i], x[i], 2e-3) << "size " << n;
    }
  }
}

TEST(RealFft, ToneLandsInCorrectBin) {
  const std::size_t n = 256;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 16.0 * i / n);
  }
  const auto half = RealFft(x, n);
  ASSERT_EQ(half.size(), n / 2 + 1);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < half.size(); ++i) {
    if (std::abs(half[i]) > std::abs(half[peak])) peak = i;
  }
  EXPECT_EQ(peak, 16u);
  EXPECT_NEAR(std::abs(half[16]), n / 2.0, 1.0);
}

TEST(RealFft, RoundTripThroughInverse) {
  Rng rng(77);
  std::vector<float> x(300);
  for (float& v : x) v = rng.GaussianF();
  const std::size_t nfft = 512;
  const auto half = RealFft(x, nfft);
  const auto back = InverseRealFft(half, nfft);
  ASSERT_EQ(back.size(), nfft);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-3);
  }
  for (std::size_t i = x.size(); i < nfft; ++i) {
    EXPECT_NEAR(back[i], 0.0f, 1e-3);  // zero-padded region
  }
}

TEST(RealFft, PaperSize1200RoundTrip) {
  Rng rng(5);
  std::vector<float> x(1200);
  for (float& v : x) v = rng.GaussianF();
  const auto half = RealFft(x, 1200);
  ASSERT_EQ(half.size(), 601u);  // the paper's 601 frequency bins
  const auto back = InverseRealFft(half, 1200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 2e-3);
  }
}

TEST(RealFft, DcSignal) {
  std::vector<float> x(64, 1.0f);
  const auto half = RealFft(x, 64);
  EXPECT_NEAR(std::abs(half[0]), 64.0, 1e-3);
  for (std::size_t i = 1; i < half.size(); ++i) {
    EXPECT_NEAR(std::abs(half[i]), 0.0, 1e-3);
  }
}

TEST(RealFft, LinearityOfSuperposition) {
  // Eq. 4 of the paper: F[a1 x1 + a2 x2] = a1 X1 + a2 X2.
  Rng rng(9);
  std::vector<float> x1(200), x2(200), mix(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x1[i] = rng.GaussianF();
    x2[i] = rng.GaussianF();
    mix[i] = 0.7f * x1[i] + 1.3f * x2[i];
  }
  const auto h1 = RealFft(x1, 256);
  const auto h2 = RealFft(x2, 256);
  const auto hm = RealFft(mix, 256);
  for (std::size_t i = 0; i < hm.size(); ++i) {
    const Cf expect = 0.7f * h1[i] + 1.3f * h2[i];
    EXPECT_NEAR(hm[i].real(), expect.real(), 2e-3);
    EXPECT_NEAR(hm[i].imag(), expect.imag(), 2e-3);
  }
}

TEST(RealFft, RejectsTinyNfft) {
  std::vector<float> x(4, 1.0f);
  EXPECT_THROW(RealFft(x, 1), nec::CheckError);
}

TEST(InverseRealFft, RejectsWrongSpectrumLength) {
  std::vector<Cf> half(10);
  EXPECT_THROW(InverseRealFft(half, 64), nec::CheckError);
}

}  // namespace
}  // namespace nec::dsp
