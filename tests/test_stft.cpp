// Tests for STFT / ISTFT: shapes (including the paper's configuration),
// perfect reconstruction, the spectrogram superposition property the NEC
// training objective relies on, and bit-identity of the frame-blocked
// transforms (and the enrollment LAS built on them) with the
// frame-at-a-time loops they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/las_selector.h"
#include "dsp/mel.h"
#include "dsp/stft.h"
#include "encoder/encoder.h"
#include "encoder/las.h"
#include "synth/dataset.h"

namespace nec::dsp {
namespace {

audio::Waveform RandomWave(int rate, std::size_t n, std::uint64_t seed) {
  nec::Rng rng(seed);
  audio::Waveform w(rate, n);
  for (std::size_t i = 0; i < n; ++i) w[i] = 0.3f * rng.GaussianF();
  return w;
}

TEST(StftConfig, PaperDimensions) {
  // §IV-B1: 3 s at 16 kHz = 48000 samples, FFT 1200 → 601 bins; window
  // 400, hop 160 → ~299 frames.
  StftConfig cfg{.fft_size = 1200, .win_length = 400, .hop_length = 160};
  EXPECT_EQ(cfg.num_bins(), 601u);
  const std::size_t frames = cfg.NumFrames(48000);
  EXPECT_NEAR(static_cast<double>(frames), 299.0, 2.0);
}

TEST(StftConfig, FrameCountEdgeCases) {
  StftConfig cfg{.fft_size = 256, .win_length = 256, .hop_length = 128};
  EXPECT_EQ(cfg.NumFrames(0), 0u);
  EXPECT_EQ(cfg.NumFrames(1), 1u);
  EXPECT_EQ(cfg.NumFrames(256), 1u);
  EXPECT_EQ(cfg.NumFrames(257), 2u);
}

TEST(Stft, ToneConcentratesInCorrectBin) {
  const int rate = 16000;
  audio::Waveform w(rate, std::size_t{16000});
  const double f = 1000.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(std::sin(2.0 * std::numbers::pi * f * i / rate));
  }
  StftConfig cfg{.fft_size = 512, .win_length = 400, .hop_length = 160};
  const Spectrogram spec = Stft(w, cfg);
  const std::size_t expected_bin =
      static_cast<std::size_t>(f * cfg.fft_size / rate);
  // Check an interior frame.
  const std::size_t t = spec.num_frames() / 2;
  std::size_t peak = 0;
  for (std::size_t b = 1; b < spec.num_bins(); ++b) {
    if (spec.MagAt(t, b) > spec.MagAt(t, peak)) peak = b;
  }
  EXPECT_NEAR(static_cast<double>(peak), static_cast<double>(expected_bin),
              1.0);
}

TEST(Stft, EmptyInputYieldsEmptySpectrogram) {
  audio::Waveform w(16000, std::size_t{0});
  StftConfig cfg{.fft_size = 256, .win_length = 256, .hop_length = 128};
  const Spectrogram spec = Stft(w, cfg);
  EXPECT_EQ(spec.num_frames(), 0u);
}

class StftRoundTrip : public ::testing::TestWithParam<StftConfig> {};

TEST_P(StftRoundTrip, ReconstructsOriginal) {
  const StftConfig cfg = GetParam();
  const audio::Waveform w = RandomWave(16000, 8000, cfg.fft_size);
  const Spectrogram spec = Stft(w, cfg);
  const audio::Waveform back = Istft(spec, cfg, 16000, w.size());
  ASSERT_EQ(back.size(), w.size());
  // Skip the first/last window (edge effects from missing overlap).
  for (std::size_t i = cfg.win_length; i + cfg.win_length < w.size(); ++i) {
    EXPECT_NEAR(back[i], w[i], 5e-3) << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StftRoundTrip,
    ::testing::Values(
        StftConfig{.fft_size = 256, .win_length = 256, .hop_length = 128},
        StftConfig{.fft_size = 512, .win_length = 400, .hop_length = 160},
        StftConfig{.fft_size = 1200, .win_length = 400, .hop_length = 160},
        StftConfig{.fft_size = 512, .win_length = 512, .hop_length = 128}));

TEST(Stft, SpectrogramSuperpositionApproximation) {
  // Eq. 5 footing: for uncorrelated sources the mixed magnitude is close
  // to the element-wise sum of magnitudes in the cells where one source
  // dominates; globally |S_mixed| <= |S_a| + |S_b| (triangle inequality).
  const audio::Waveform a = RandomWave(16000, 6000, 1);
  const audio::Waveform b = RandomWave(16000, 6000, 2);
  const audio::Waveform mix = audio::Mix(a, b);
  StftConfig cfg{.fft_size = 256, .win_length = 256, .hop_length = 128};
  const Spectrogram sa = Stft(a, cfg), sb = Stft(b, cfg),
                    sm = Stft(mix, cfg);
  for (std::size_t i = 0; i < sm.mag().size(); ++i) {
    EXPECT_LE(sm.mag()[i], sa.mag()[i] + sb.mag()[i] + 1e-4f);
  }
}

audio::Waveform ToneMix(std::initializer_list<double> freqs,
                        std::size_t n) {
  audio::Waveform w(16000, n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (double f : freqs) {
      v += 0.2 * std::sin(2.0 * std::numbers::pi * f * i / 16000.0);
    }
    w[i] = static_cast<float>(v);
  }
  return w;
}

TEST(Istft, SignedShadowSuperpositionCancelsInWaveDomain) {
  // The core NEC mechanism: rendering (S_bk - S_mixed) with the mixed
  // phase and adding it to the mixed waveform should land close to the
  // background waveform. Sources occupy (mostly) disjoint T-F cells, like
  // two talkers — where the background dominates a cell, the mixed phase
  // approximates the background phase and cancellation carries over to
  // the wave domain.
  const audio::Waveform bob = ToneMix({300.0, 625.0, 937.5}, 8000);
  const audio::Waveform alice = ToneMix({437.5, 750.0, 1125.0}, 8000);
  const audio::Waveform mixed = audio::Mix(bob, alice);
  StftConfig cfg{.fft_size = 256, .win_length = 256, .hop_length = 128};
  const Spectrogram sm = Stft(mixed, cfg);
  const Spectrogram sbk = Stft(alice, cfg);

  std::vector<float> shadow(sm.mag().size());
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    shadow[i] = sbk.mag()[i] - sm.mag()[i];
  }
  const audio::Waveform shadow_wave =
      IstftWithPhase(shadow, sm, cfg, 16000, mixed.size());
  const audio::Waveform record = audio::Mix(mixed, shadow_wave);

  // Residual of bob in record should be much smaller than in mixed.
  double err_before = 0.0, err_after = 0.0;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const double db = mixed[i] - alice[i];
    const double da = record[i] - alice[i];
    err_before += db * db;
    err_after += da * da;
  }
  EXPECT_LT(err_after, 0.35 * err_before);
}

TEST(IstftWithPhase, RejectsShapeMismatch) {
  const audio::Waveform w = RandomWave(16000, 4000, 3);
  StftConfig cfg{.fft_size = 256, .win_length = 256, .hop_length = 128};
  const Spectrogram spec = Stft(w, cfg);
  std::vector<float> wrong(spec.mag().size() + 1, 0.0f);
  EXPECT_THROW(IstftWithPhase(wrong, spec, cfg, 16000), nec::CheckError);
}

// ------------------------------------------- frame-at-a-time references

// The per-frame forward loop the frame-blocked STFT replaced, verbatim.
Spectrogram ReferenceStft(const audio::Waveform& wave,
                          const StftConfig& config) {
  const std::size_t frames = config.NumFrames(wave.size());
  const std::size_t bins = config.num_bins();
  Spectrogram out(frames, bins);
  if (frames == 0) return out;
  const auto plan = GetFftPlan(config.fft_size);
  const std::vector<float> window =
      MakeWindow(config.window, config.win_length, /*periodic=*/true);
  std::vector<float> frame(config.win_length);
  std::vector<std::complex<float>> half;
  FftScratch fft;
  const auto samples = wave.samples();

  for (std::size_t t = 0; t < frames; ++t) {
    const std::size_t start = t * config.hop_length;
    for (std::size_t i = 0; i < config.win_length; ++i) {
      const std::size_t src = start + i;
      frame[i] = (src < samples.size() ? samples[src] : 0.0f) * window[i];
    }
    RealFft(frame, *plan, half, fft);
    for (std::size_t f = 0; f < bins; ++f) {
      out.MagAt(t, f) = std::abs(half[f]);
      out.PhaseAt(t, f) = std::arg(half[f]);
    }
  }
  return out;
}

// The per-frame inverse loop (IstftImplInto) the block ISTFT replaced,
// verbatim.
audio::Waveform ReferenceIstft(const std::vector<float>& mag,
                               const std::vector<float>& phase,
                               std::size_t num_frames, std::size_t num_bins,
                               const StftConfig& config, int sample_rate,
                               std::size_t num_samples) {
  const std::size_t natural_len =
      num_frames == 0 ? 0
                      : (num_frames - 1) * config.hop_length +
                            config.win_length;
  const std::size_t out_len = num_samples > 0 ? num_samples : natural_len;
  audio::Waveform out;
  out.AssignSilence(sample_rate, std::max<std::size_t>(out_len, 1));
  const auto plan = GetFftPlan(config.fft_size);
  const std::vector<float> window =
      MakeWindow(config.window, config.win_length, /*periodic=*/true);
  std::vector<double> acc(natural_len, 0.0), wsum(natural_len, 0.0);
  std::vector<std::complex<float>> half(num_bins);
  std::vector<float> time;
  FftScratch fft;

  for (std::size_t t = 0; t < num_frames; ++t) {
    for (std::size_t f = 0; f < num_bins; ++f) {
      const float m = mag[t * num_bins + f];
      const float p = phase[t * num_bins + f];
      half[f] = std::complex<float>(m * std::cos(p), m * std::sin(p));
    }
    InverseRealFft(half, *plan, time, fft);
    const std::size_t start = t * config.hop_length;
    for (std::size_t i = 0; i < config.win_length; ++i) {
      acc[start + i] += static_cast<double>(time[i]) * window[i];
      wsum[start + i] += static_cast<double>(window[i]) * window[i];
    }
  }

  constexpr double kWsumFloor = 5e-2;
  for (std::size_t i = 0; i < std::min(out_len, natural_len); ++i) {
    out[i] = static_cast<float>(acc[i] / std::max(wsum[i], kWsumFloor));
  }
  out.ResizeTo(out_len);
  return out;
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i;
  }
}

void ExpectSameBits(const audio::Waveform& got, const audio::Waveform& want,
                    const std::string& what) {
  ExpectSameBits(std::vector<float>(got.samples().begin(), got.samples().end()),
                 std::vector<float>(want.samples().begin(),
                                    want.samples().end()),
                 what);
}

TEST(StftBlocks, BitIdenticalToFrameAtATimeLoops) {
  // Fast() (the served model), the LAS encoder's FFT-512/320/160 and
  // Paper()'s Bluestein FFT-1200, at frame counts on and off a block
  // boundary, through one workspace that rebinds between configs.
  const encoder::LasConfig las;
  const StftConfig configs[] = {
      core::NecConfig::Fast().stft,
      {.fft_size = las.fft_size,
       .win_length = las.win_length,
       .hop_length = las.hop_length},
      core::NecConfig::Paper().stft};
  const std::size_t L = kFftLanes;
  StftWorkspace ws;
  Spectrogram spec;
  audio::Waveform back;
  for (const StftConfig& cfg : configs) {
    for (const std::size_t frames :
         {std::size_t{1}, L - 1, L, L + 1, 2 * L + 3, std::size_t{101}}) {
      // A partial last frame (zero-padded past the signal's end).
      const std::size_t len =
          cfg.win_length + (frames - 1) * cfg.hop_length - (frames > 1);
      const audio::Waveform w = RandomWave(16000, len, frames * 7 + len);
      const std::string what = "fft " + std::to_string(cfg.fft_size) +
                               " frames " + std::to_string(frames);
      ASSERT_EQ(cfg.NumFrames(len), frames) << what;

      const Spectrogram want = ReferenceStft(w, cfg);
      Stft(w, cfg, ws, spec);
      ExpectSameBits(spec.mag(), want.mag(), what + " mag");
      ExpectSameBits(spec.phase(), want.phase(), what + " phase");
      ExpectSameBits(StftMagnitude(w, cfg), want.mag(),
                     what + " magnitude-only");

      // Natural length, trimmed and padded reconstructions.
      for (const std::size_t out_len : {std::size_t{0}, len - 1, len + 7}) {
        ExpectSameBits(Istft(spec, cfg, 16000, out_len, ws),
                       ReferenceIstft(want.mag(), want.phase(), frames,
                                      cfg.num_bins(), cfg, 16000, out_len),
                       what + " istft " + std::to_string(out_len));
      }

      // A signed shadow surface with the mix's phase, as the pipeline
      // renders it.
      Rng rng(len);
      std::vector<float> shadow(want.mag().size());
      for (float& v : shadow) v = rng.GaussianF();
      IstftWithPhaseInto(shadow, spec, cfg, 16000, len, ws, back);
      ExpectSameBits(back,
                     ReferenceIstft(shadow, want.phase(), frames,
                                    cfg.num_bins(), cfg, 16000, len),
                     what + " shadow istft");
    }
  }
}

TEST(StftBlocks, CancellingFramesPinTheOverlapAddOrder) {
  // On ordinary surfaces the double overlap-add sums hide their order once
  // rounded to float. Here every sample takes four exact addends that
  // cancel: frames carrying only DC and Nyquist bins, with phase 0,
  // inverse-transform exactly to 2m/N on even samples and 0 on odd ones,
  // and a rectangular window adds them unscaled. Per even sample the
  // frames add a cyclic run of s, +B, -B, t (B = 2^40, s = 1/3, t =
  // 2^-20; B's double ulp is 2^-12). Which of s and t survive B depends on
  // where they fall in the sum, so reversing the frames of a block, or
  // pairs of them, gives different bits.
  const StftConfig cfg{.fft_size = 64,
                       .win_length = 64,
                       .hop_length = 16,
                       .window = WindowType::kRectangular};
  const std::size_t bins = cfg.num_bins();
  const float to_mag = static_cast<float>(cfg.fft_size) / 2.0f;
  const float addends[] = {1.0f / 3.0f, std::ldexp(1.0f, 40),
                           -std::ldexp(1.0f, 40), std::ldexp(1.0f, -20)};
  const std::size_t frames = 4 * kFftLanes + 4;
  Spectrogram spec(frames, bins);
  for (std::size_t t = 0; t < frames; ++t) {
    spec.MagAt(t, 0) = spec.MagAt(t, bins - 1) = addends[t % 4] * to_mag;
  }
  const audio::Waveform want = ReferenceIstft(
      spec.mag(), spec.phase(), frames, bins, cfg, 16000, 0);
  ExpectSameBits(Istft(spec, cfg, 16000), want, "cancelling istft");
  // Sample 64 sums frames 1..4 (+B, -B, t, s): the case is live only if
  // that sum kept t.
  EXPECT_NE(want[64], addends[0] / 4.0f);
}

// ------------------------------------------------- enrollment references

// encoder::LasImpl before it read magnitude-only STFTs, verbatim.
std::vector<float> ReferenceLas(const audio::Waveform& wave,
                                const encoder::LasConfig& config,
                                float rel_threshold) {
  const StftConfig stft{.fft_size = config.fft_size,
                        .win_length = config.win_length,
                        .hop_length = config.hop_length,
                        .window = WindowType::kHann};
  const Spectrogram spec = ReferenceStft(wave, stft);
  const std::size_t bins = spec.num_bins();
  std::vector<float> las(bins, 0.0f);

  std::vector<float> frame_energy(spec.num_frames(), 0.0f);
  float max_energy = 0.0f;
  for (std::size_t t = 0; t < spec.num_frames(); ++t) {
    double acc = 0.0;
    for (std::size_t f = 0; f < bins; ++f) {
      const float m = spec.MagAt(t, f);
      acc += static_cast<double>(m) * m;
    }
    frame_energy[t] = static_cast<float>(acc);
    max_energy = std::max(max_energy, frame_energy[t]);
  }
  const float gate = rel_threshold * rel_threshold * max_energy;

  std::size_t used = 0;
  for (std::size_t t = 0; t < spec.num_frames(); ++t) {
    if (frame_energy[t] < gate) continue;
    for (std::size_t f = 0; f < bins; ++f) {
      las[f] += spec.MagAt(t, f);
    }
    ++used;
  }
  if (used == 0) return las;
  const float inv = 1.0f / static_cast<float>(used);
  for (float& v : las) v *= inv;
  return las;
}

void ReferenceL2Normalize(std::vector<float>& v) {
  double acc = 0.0;
  for (float x : v) acc += static_cast<double>(x) * x;
  const float norm = static_cast<float>(std::sqrt(acc));
  if (norm > 1e-12f) {
    for (float& x : v) x /= norm;
  }
}

// LasEncoder::EmbedReferences on ReferenceLas: encoder::LasMelFeatures,
// LasEncoder::Embed and EmbedReferences, verbatim.
std::vector<float> ReferenceLasDvector(
    std::span<const audio::Waveform> references, std::size_t num_mels) {
  std::vector<float> dvec(num_mels, 0.0f);
  for (const audio::Waveform& wave : references) {
    const std::vector<float> las = ReferenceLas(wave, {}, 0.1f);
    const std::size_t bins = las.size();
    std::vector<float> power(bins);
    for (std::size_t i = 0; i < bins; ++i) power[i] = las[i] * las[i];
    const MelFilterbank bank(num_mels * 2, bins,
                             static_cast<double>(wave.sample_rate()));
    std::vector<float> mel = bank.Apply(power);
    std::vector<float> logmel = LogCompress(mel, 1e-12f);
    std::vector<float> cep = Dct2(logmel, num_mels + 2);
    std::vector<float> feats(cep.begin() + 2, cep.end());
    double var = 0.0;
    for (float v : feats) var += static_cast<double>(v) * v;
    var /= static_cast<double>(feats.size());
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + 1e-9));
    for (float& v : feats) v *= inv_std;
    ReferenceL2Normalize(feats);
    for (std::size_t i = 0; i < dvec.size(); ++i) dvec[i] += feats[i];
  }
  ReferenceL2Normalize(dvec);
  return dvec;
}

// core::LasSelector::Enroll before it read magnitude-only STFTs, verbatim.
std::vector<float> ReferenceSelectorLas(
    std::span<const audio::Waveform> references, const core::NecConfig& cfg) {
  const std::size_t F = cfg.num_bins();
  std::vector<float> reference_las(F, 0.0f);
  for (const audio::Waveform& ref : references) {
    const Spectrogram spec = ReferenceStft(ref, cfg.stft);
    std::vector<double> acc(F, 0.0);
    double max_e = 0.0;
    std::vector<double> frame_e(spec.num_frames(), 0.0);
    for (std::size_t t = 0; t < spec.num_frames(); ++t) {
      for (std::size_t f = 0; f < F; ++f) {
        frame_e[t] += static_cast<double>(spec.MagAt(t, f)) *
                      spec.MagAt(t, f);
      }
      max_e = std::max(max_e, frame_e[t]);
    }
    std::size_t used = 0;
    for (std::size_t t = 0; t < spec.num_frames(); ++t) {
      if (frame_e[t] < 0.01 * max_e) continue;
      for (std::size_t f = 0; f < F; ++f) acc[f] += spec.MagAt(t, f);
      ++used;
    }
    if (used == 0) continue;
    for (std::size_t f = 0; f < F; ++f) {
      reference_las[f] += static_cast<float>(acc[f] / used);
    }
  }
  double norm = 0.0;
  for (float v : reference_las) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (float& v : reference_las) v = static_cast<float>(v / norm);
  }
  return reference_las;
}

class EnrollmentBitExact : public ::testing::Test {
 protected:
  synth::DatasetBuilder builder_{{.duration_s = 1.5}};
  std::vector<audio::Waveform> refs_ = builder_.MakeReferenceAudios(
      synth::DatasetBuilder::MakeSpeakers(1, 4242)[0], 3, 17);
};

TEST_F(EnrollmentBitExact, LasMatchesFrameAtATimeStft) {
  for (const audio::Waveform& ref : refs_) {
    ExpectSameBits(encoder::VoicedLas(ref), ReferenceLas(ref, {}, 0.1f),
                   "voiced LAS");
    ExpectSameBits(encoder::LongTimeAverageSpectrum(ref),
                   ReferenceLas(ref, {}, 0.0f), "LAS");
  }
}

TEST_F(EnrollmentBitExact, LasEncoderDvectorMatchesOldPath) {
  for (const std::size_t num_mels : {std::size_t{16}, std::size_t{40}}) {
    const encoder::LasEncoder enc(num_mels);
    ExpectSameBits(enc.EmbedReferences(refs_),
                   ReferenceLasDvector(refs_, num_mels), "d-vector");
  }
}

TEST_F(EnrollmentBitExact, LasSelectorReferenceLasMatchesOldPath) {
  for (const core::NecConfig& cfg :
       {core::NecConfig::Fast(), core::NecConfig::Paper()}) {
    core::LasSelector sel(cfg);
    sel.Enroll(refs_);
    ExpectSameBits(sel.reference_las(), ReferenceSelectorLas(refs_, cfg),
                   "reference LAS, fft " + std::to_string(cfg.stft.fft_size));
  }
}

TEST(Spectrogram, EnergyAccumulates) {
  Spectrogram s(2, 3);
  s.MagAt(0, 0) = 2.0f;
  s.MagAt(1, 2) = 3.0f;
  EXPECT_NEAR(s.Energy(), 13.0, 1e-6);
}

}  // namespace
}  // namespace nec::dsp
