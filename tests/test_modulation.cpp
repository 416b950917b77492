// Tests for ultrasonic AM modulation (Eq. 7/9): carrier placement,
// inaudibility, and ideal-demodulation round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <numbers>
#include <random>
#include <thread>

#include "channel/modulation.h"
#include "common/check.h"
#include "dsp/fft.h"
#include "dsp/resample.h"

namespace nec::channel {
namespace {

audio::Waveform Tone(int rate, double f, double seconds) {
  audio::Waveform w(rate, static_cast<std::size_t>(rate * seconds));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(
        0.5 * std::sin(2.0 * std::numbers::pi * f * i / rate));
  }
  return w;
}

// The three-pass ModulateAmInto the fused kernel replaced (resample, then
// gain/clamp or peak normalization, then cos(w*i) per sample), kept
// verbatim as its bitwise reference.
void ReferenceModulateAmInto(const audio::Waveform& baseband,
                             const ModulationConfig& config,
                             dsp::ResamplerPlan& plan, audio::Waveform& out) {
  NEC_CHECK_MSG(config.carrier_hz > 20000.0 &&
                    config.carrier_hz < 0.45 * config.air_sample_rate,
                "carrier " << config.carrier_hz
                           << " Hz outside the inaudible/supported band");
  NEC_CHECK_MSG(config.alpha > 0.0, "alpha must be positive");

  dsp::ResampleInto(baseband, config.air_sample_rate, plan, out);
  if (config.reference_peak > 0.0) {
    // Fixed stream-wide gain: every chunk of a stream maps amplitude to
    // envelope identically, so the emitted power coefficient is stable.
    // Resampler overshoot (or chunks louder than the reference) clamps to
    // the |m| <= 1 modulation-index invariant instead of re-normalizing.
    const float scale = static_cast<float>(1.0 / config.reference_peak);
    for (float& s : out.samples()) s = std::clamp(s * scale, -1.0f, 1.0f);
  } else {
    const float peak = out.Peak();
    if (peak > 0.0f) out.Scale(1.0f / peak);  // |m| <= 1
  }

  const double w = 2.0 * std::numbers::pi * config.carrier_hz /
                   config.air_sample_rate;
  const double norm = config.peak / (1.0 + config.alpha);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double carrier = std::cos(w * static_cast<double>(i));
    out[i] = static_cast<float>(
        (static_cast<double>(out[i]) + config.alpha) * carrier * norm);
  }
}

audio::Waveform ReferenceModulateAm(const audio::Waveform& baseband,
                                    const ModulationConfig& config) {
  dsp::ResamplerPlan plan;
  audio::Waveform out;
  ReferenceModulateAmInto(baseband, config, plan, out);
  return out;
}

// Noise with a silent run and spikes well past any reference peak used
// below, so the clamp engages.
audio::Waveform MixedSignal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-0.3f, 0.3f);
  audio::Waveform w(16000, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= n / 4 && i < n / 2) continue;  // silent run
    w[i] = i % 97 == 5 ? (i % 2 ? 2.0f : -2.0f) : dist(rng);
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

// Energy of `w` inside [lo, hi) Hz via one big FFT.
double BandEnergy(const audio::Waveform& w, double lo, double hi) {
  const std::size_t nfft = dsp::NextPowerOfTwo(w.size());
  const auto half = dsp::RealFft(w.samples(), nfft);
  double acc = 0.0;
  for (std::size_t i = 0; i < half.size(); ++i) {
    const double f = i * static_cast<double>(w.sample_rate()) / nfft;
    if (f >= lo && f < hi) acc += std::norm(std::complex<double>(half[i]));
  }
  return acc;
}

TEST(Modulation, OutputAtAirRate) {
  const auto mod = ModulateAm(Tone(16000, 500.0, 0.2), {});
  EXPECT_EQ(mod.sample_rate(), kAirSampleRate);
  EXPECT_NEAR(static_cast<double>(mod.size()), 0.2 * kAirSampleRate, 64.0);
}

TEST(Modulation, EnergyConcentratedAroundCarrier) {
  ModulationConfig cfg{.carrier_hz = 27000.0, .alpha = 1.0};
  const auto mod = ModulateAm(Tone(16000, 1000.0, 0.25), cfg);
  const double near_carrier = BandEnergy(mod, 25000.0, 29000.0);
  const double audible = BandEnergy(mod, 0.0, 16000.0);
  EXPECT_GT(near_carrier, 100.0 * audible);
}

TEST(Modulation, IsInaudible) {
  // No more than a sliver of energy below 20 kHz → humans hear nothing.
  ModulationConfig cfg{.carrier_hz = 25000.0};
  const auto mod = ModulateAm(Tone(16000, 2000.0, 0.25), cfg);
  const double audible = BandEnergy(mod, 20.0, 20000.0);
  const double total = BandEnergy(mod, 20.0, 96000.0);
  EXPECT_LT(audible / total, 1e-3);
}

TEST(Modulation, PeakRespected) {
  ModulationConfig cfg{.carrier_hz = 27000.0, .peak = 0.8};
  const auto mod = ModulateAm(Tone(16000, 700.0, 0.2), cfg);
  EXPECT_LE(mod.Peak(), 0.82f);
  EXPECT_GT(mod.Peak(), 0.5f);
}

TEST(Modulation, SidebandsAtCarrierPlusMinusTone) {
  ModulationConfig cfg{.carrier_hz = 27000.0, .alpha = 1.0};
  const auto mod = ModulateAm(Tone(16000, 1500.0, 0.5), cfg);
  // DSB-AM: carrier at 27 kHz, sidebands at 25.5 and 28.5 kHz.
  const double side_lo = BandEnergy(mod, 25300.0, 25700.0);
  const double side_hi = BandEnergy(mod, 28300.0, 28700.0);
  const double gap = BandEnergy(mod, 26100.0, 26700.0);
  EXPECT_GT(side_lo, 10.0 * gap);
  EXPECT_GT(side_hi, 10.0 * gap);
}

TEST(Modulation, RejectsAudibleCarrier) {
  EXPECT_THROW(ModulateAm(Tone(16000, 500.0, 0.1), {.carrier_hz = 15000.0}),
               nec::CheckError);
}

TEST(Modulation, RejectsCarrierAboveSupportedBand) {
  EXPECT_THROW(
      ModulateAm(Tone(16000, 500.0, 0.1), {.carrier_hz = 90000.0}),
      nec::CheckError);
}

TEST(Modulation, RejectsNonPositiveAlpha) {
  EXPECT_THROW(
      ModulateAm(Tone(16000, 500.0, 0.1),
                 {.carrier_hz = 27000.0, .alpha = 0.0}),
      nec::CheckError);
}

class DemodRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(DemodRoundTrip, CoherentDemodRecoversTone) {
  const double carrier = GetParam();
  const double tone_hz = 800.0;
  ModulationConfig cfg{.carrier_hz = carrier, .alpha = 1.0};
  const auto mod = ModulateAm(Tone(16000, tone_hz, 0.5), cfg);
  const auto demod = DemodulateAm(mod, carrier, 16000);
  // The demodulated signal contains the tone (plus DC from the carrier
  // offset); check the tone band dominates other non-DC content.
  const double tone_band = BandEnergy(demod, 700.0, 900.0);
  const double rest = BandEnergy(demod, 1200.0, 7000.0);
  EXPECT_GT(tone_band, 20.0 * rest);
}

INSTANTIATE_TEST_SUITE_P(Carriers, DemodRoundTrip,
                         ::testing::Values(24000.0, 27000.0, 30000.0));

TEST(Modulation, StreamedChunksMatchWholeUtteranceWithReferencePeak) {
  // THE streamed-gain regression (satellite of the hot-path PR): chunked
  // modulation with one shared reference_peak must reproduce the
  // whole-utterance result. Legacy per-chunk peak normalization re-scaled
  // every chunk by its own loudness, so a quiet second was emitted as loud
  // as a shouted one. Two 1 s halves at 5:1 amplitude expose that
  // immediately.
  const int rate = 16000;
  audio::Waveform whole(rate, static_cast<std::size_t>(2 * rate));
  for (std::size_t i = 0; i < whole.size(); ++i) {
    const double amp = i < static_cast<std::size_t>(rate) ? 0.5 : 0.1;
    whole[i] = static_cast<float>(
        amp * std::sin(2.0 * std::numbers::pi * 600.0 * i / rate));
  }
  // Integer carrier Hz x integer chunk seconds → the carrier phase at each
  // chunk boundary is a whole number of cycles, so per-chunk cos(w i)
  // restarts in phase with the whole-utterance carrier.
  ModulationConfig cfg{.carrier_hz = 24000.0};
  cfg.reference_peak = 0.5;

  const auto mod_whole = ModulateAm(whole, cfg);
  auto mod_chunked = ModulateAm(whole.Slice(0, rate), cfg);
  // The streamed chunks are exactly what the three-pass kernel emitted.
  ExpectBitIdentical(mod_chunked,
                     ReferenceModulateAm(whole.Slice(0, rate), cfg));
  const auto second = whole.Slice(rate, rate);
  ExpectBitIdentical(ModulateAm(second, cfg), ReferenceModulateAm(second, cfg));
  mod_chunked.Append(ModulateAm(second, cfg));
  ASSERT_EQ(mod_chunked.size(), mod_whole.size());
  ExpectBitIdentical(mod_whole, ReferenceModulateAm(whole, cfg));

  // Identical except for resampler edge transients at the chunk seam;
  // compare RMS of the difference over the interior of each chunk.
  const std::size_t guard = 2048;  // air-rate samples around each boundary
  double diff2 = 0.0, sig2 = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = guard; i + guard < mod_whole.size(); ++i) {
    const std::size_t chunk_pos = i % (mod_whole.size() / 2);
    if (chunk_pos < guard || chunk_pos + guard > mod_whole.size() / 2) {
      continue;
    }
    const double d = mod_chunked[i] - mod_whole[i];
    diff2 += d * d;
    sig2 += static_cast<double>(mod_whole[i]) * mod_whole[i];
    ++counted;
  }
  ASSERT_GT(counted, mod_whole.size() / 2);
  EXPECT_LT(std::sqrt(diff2 / counted), 1e-3 * std::sqrt(sig2 / counted));
}

TEST(Modulation, PerChunkNormalizationBugIsGone) {
  // Direct witness of the old bug: under legacy normalization a 5x quieter
  // chunk modulates to the SAME sideband power as the loud one; with a
  // shared reference the emitted power tracks the content.
  const auto loud = Tone(16000, 800.0, 0.25);  // peak 0.5
  auto quiet = loud;
  quiet.Scale(0.2f);

  ModulationConfig legacy{.carrier_hz = 27000.0};
  const double legacy_ratio =
      BandEnergy(ModulateAm(quiet, legacy), 25000.0, 29000.0) /
      BandEnergy(ModulateAm(loud, legacy), 25000.0, 29000.0);
  EXPECT_NEAR(legacy_ratio, 1.0, 0.05);  // the bug: loudness erased

  ModulationConfig fixed{.carrier_hz = 27000.0};
  fixed.reference_peak = 0.5;
  const auto fixed_loud = ModulateAm(loud, fixed);
  const auto fixed_quiet = ModulateAm(quiet, fixed);
  // Sideband (content) energy must scale ~(0.2)^2; total energy is
  // carrier-dominated so compare after removing the carrier line.
  const double side_loud =
      BandEnergy(fixed_loud, 26100.0, 26900.0) +
      BandEnergy(fixed_loud, 27100.0, 27900.0);
  const double side_quiet =
      BandEnergy(fixed_quiet, 26100.0, 26900.0) +
      BandEnergy(fixed_quiet, 27100.0, 27900.0);
  // ~(0.2)^2 = 0.04, with slack for carrier spectral leakage into the
  // sideband bands; the legacy ratio above pinned at 1.0 either way.
  EXPECT_LT(side_quiet / side_loud, 0.08);
  EXPECT_GT(side_quiet / side_loud, 0.01);
}

TEST(Modulation, ReferencePeakClampsHotterChunks) {
  // A chunk louder than the stream reference clamps its envelope to the
  // |m| <= 1 modulation-index invariant rather than exceeding it.
  ModulationConfig cfg{.carrier_hz = 27000.0, .peak = 0.9};
  cfg.reference_peak = 0.1;  // 5x below the tone's 0.5 peak
  const auto mod = ModulateAm(Tone(16000, 700.0, 0.2), cfg);
  EXPECT_LE(mod.Peak(), 0.92f);  // (1 + alpha) * peak / (1 + alpha) = peak
  EXPECT_GT(mod.Peak(), 0.5f);
}

TEST(Demodulation, RejectsRateThatClipsUpperSideband) {
  // 64 kHz carries a 27 kHz carrier (old guard: 64k > 2*27k passed) but
  // NOT its upper sideband at 27 + 8 kHz = 35 kHz > Nyquist (32 kHz); the
  // tightened guard must refuse instead of aliasing the sideband back
  // into the recovered audio.
  audio::Waveform passband(64000, std::size_t{6400});
  EXPECT_THROW(DemodulateAm(passband, 27000.0, 16000), nec::CheckError);
}

TEST(Demodulation, AcceptsRateCoveringCarrierPlusBandwidth) {
  audio::Waveform passband(96000, std::size_t{9600});
  // 2*(27000 + 8000) = 70 kHz < 96 kHz: legal, must not throw.
  const auto out = DemodulateAm(passband, 27000.0, 16000);
  EXPECT_EQ(out.sample_rate(), 16000);
}

TEST(Modulation, EnvelopeIsNonNegativeAtUnitAlpha) {
  // With |m| <= 1 and alpha = 1 the AM envelope (m + 1) never crosses
  // zero — the condition for distortion-free square-law demodulation.
  ModulationConfig cfg{.carrier_hz = 27000.0, .alpha = 1.0};
  const auto base = Tone(16000, 440.0, 0.1);
  const auto mod = ModulateAm(base, cfg);
  // Envelope check: local maxima of |mod| should never be (near) zero for
  // a full carrier cycle region; approximate via max over carrier periods.
  const std::size_t period =
      static_cast<std::size_t>(kAirSampleRate / cfg.carrier_hz);
  for (std::size_t start = 10 * period; start + period < mod.size() / 2;
       start += period) {
    float peak = 0.0f;
    for (std::size_t i = start; i < start + period; ++i) {
      peak = std::max(peak, std::abs(mod[i]));
    }
    EXPECT_GT(peak, 0.0f);
  }
}

class FusedKernelBitExact : public ::testing::TestWithParam<double> {};

TEST_P(FusedKernelBitExact, MatchesThreePassReference) {
  // Every length from shorter than one phase's taps to a whole chunk plus
  // one, with the stream reference (gain + clamp fused into the resampler)
  // and without it (peak-normalized second pass).
  const double carrier = GetParam();
  for (const double reference_peak : {0.25, 0.0}) {
    ModulationConfig cfg{.carrier_hz = carrier};
    cfg.reference_peak = reference_peak;
    dsp::ResamplerPlan warm;
    audio::Waveform got;
    for (const std::size_t n : {1u, 2u, 24u, 25u, 26u, 300u, 16000u, 16001u}) {
      SCOPED_TRACE(::testing::Message()
                   << "length " << n << " reference " << reference_peak);
      const audio::Waveform x = MixedSignal(n, static_cast<unsigned>(n));
      const audio::Waveform want = ReferenceModulateAm(x, cfg);
      ExpectBitIdentical(ModulateAm(x, cfg), want);
      ModulateAmInto(x, cfg, warm, got);
      ExpectBitIdentical(got, want);
    }
    const audio::Waveform silence(16000, std::size_t{16000});
    ModulateAmInto(silence, cfg, warm, got);
    ExpectBitIdentical(got, ReferenceModulateAm(silence, cfg));
  }
}

TEST_P(FusedKernelBitExact, RunsPastTheOneSecondCarrierTable) {
  // 1.5 s of baseband is 288,000 air samples: the last third reads the
  // carrier computed inline past the table's 192,000 entries.
  ModulationConfig cfg{.carrier_hz = GetParam()};
  const audio::Waveform x = MixedSignal(24000, 7);
  ExpectBitIdentical(ModulateAm(x, cfg), ReferenceModulateAm(x, cfg));
  cfg.reference_peak = 0.25;
  ExpectBitIdentical(ModulateAm(x, cfg), ReferenceModulateAm(x, cfg));
}

INSTANTIATE_TEST_SUITE_P(Carriers, FusedKernelBitExact,
                         ::testing::Values(24000.0, 27000.0, 28000.0));

TEST(CosineTable, ConcurrentColdModulationMatchesSequential) {
  // Several sessions bind a carrier no other test uses at the same moment,
  // so they race to build and publish its table. Each must still emit the
  // sequential three-pass result, and all must end up sharing one table.
  constexpr std::size_t kThreads = 6;
  constexpr double kCarriers[] = {25250.0, 26750.0};
  const audio::Waveform x = MixedSignal(16000, 11);
  const auto config = [&](std::size_t t) {
    ModulationConfig cfg{.carrier_hz = kCarriers[t % 2]};
    cfg.reference_peak = t % 3 == 0 ? 0.0 : 0.25;
    return cfg;
  };
  std::vector<dsp::ResamplerPlan> plans(kThreads);
  std::vector<audio::Waveform> outs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      ModulateAmInto(x, config(t), plans[t], outs[t]);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    ExpectBitIdentical(outs[t], ReferenceModulateAm(x, config(t)));
    EXPECT_EQ(plans[t].carrier.get(),
              dsp::GetCosineTable(kCarriers[t % 2], kAirSampleRate).get());
  }
}

}  // namespace
}  // namespace nec::channel
