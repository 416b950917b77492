// Tests for MFCC extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "asr/mfcc.h"
#include "common/check.h"
#include "dsp/mel.h"
#include "dsp/stft.h"
#include "synth/dataset.h"

namespace nec::asr {
namespace {

TEST(Mfcc, ShapeMatchesConfig) {
  audio::Waveform w(16000, std::size_t{16000});
  MfccConfig cfg;
  const MfccFeatures f = ComputeMfcc(w, cfg);
  EXPECT_EQ(f.dim, cfg.num_coeffs * 2);  // with deltas
  const dsp::StftConfig stft{.fft_size = cfg.fft_size,
                             .win_length = cfg.win_length,
                             .hop_length = cfg.hop_length};
  EXPECT_EQ(f.num_frames, stft.NumFrames(w.size()));
  EXPECT_EQ(f.data.size(), f.num_frames * f.dim);
}

TEST(Mfcc, NoDeltasHalvesDim) {
  audio::Waveform w(16000, std::size_t{8000});
  MfccConfig cfg;
  cfg.append_deltas = false;
  const MfccFeatures f = ComputeMfcc(w, cfg);
  EXPECT_EQ(f.dim, cfg.num_coeffs);
}

TEST(Mfcc, CepstralMeanNormZeroesAverage) {
  synth::DatasetBuilder db({.duration_s = 1.0});
  const auto spk = synth::SpeakerProfile::FromSeed(1);
  const auto utt = db.MakeUtterance(spk, 2);
  MfccConfig cfg;
  cfg.cepstral_mean_norm = true;
  const MfccFeatures f = ComputeMfcc(utt.wave, cfg);
  // CMN is energy-gated (speech frames only); verify the mean over the
  // gated frames is zero. The gate is c0 within 7 nats of the maximum.
  float max_c0 = -1e30f;
  for (std::size_t t = 0; t < f.num_frames; ++t) {
    max_c0 = std::max(max_c0, f.frame(t)[0]);
  }
  for (std::size_t k = 0; k < cfg.num_coeffs; ++k) {
    double mean = 0.0;
    std::size_t used = 0;
    for (std::size_t t = 0; t < f.num_frames; ++t) {
      // Post-CMN c0 is shifted; the gate on normalized c0 uses the same
      // 7-nat width relative to the max.
      if (f.frame(t)[0] < max_c0 - 7.0f) continue;
      mean += f.frame(t)[k];
      ++used;
    }
    mean /= static_cast<double>(used);
    EXPECT_NEAR(mean, 0.0, 1e-3) << "coeff " << k;
  }
}

TEST(Mfcc, GainInvariantWithCmn) {
  synth::DatasetBuilder db({.duration_s = 1.0});
  const auto spk = synth::SpeakerProfile::FromSeed(2);
  auto utt = db.MakeUtterance(spk, 3);
  const MfccFeatures a = ComputeMfcc(utt.wave);
  utt.wave.Scale(0.25f);
  const MfccFeatures b = ComputeMfcc(utt.wave);
  // With the relative log floor, c1.. are exactly gain-invariant.
  for (std::size_t t = 0; t < a.num_frames; t += 7) {
    for (std::size_t k = 1; k < 13; ++k) {
      EXPECT_NEAR(a.frame(t)[k], b.frame(t)[k], 2e-3);
    }
  }
}

TEST(Mfcc, DifferentVowelsGiveDifferentVectors) {
  // MFCCs must separate phonetic content or DTW matching cannot work.
  synth::Synthesizer synth({.sample_rate = 16000});
  const auto spk = synth::SpeakerProfile::FromSeed(3);
  const auto see = synth.SynthesizeWords(spk, {"see"}, 1);
  const auto saw = synth.SynthesizeWords(spk, {"two"}, 1);
  const MfccFeatures fa = ComputeMfcc(see.wave);
  const MfccFeatures fb = ComputeMfcc(saw.wave);
  // Compare mid-word frames.
  const float* va = fa.frame(fa.num_frames / 2);
  const float* vb = fb.frame(fb.num_frames / 2);
  double dist = 0.0;
  for (std::size_t k = 1; k < 13; ++k) {
    dist += (va[k] - vb[k]) * (va[k] - vb[k]);
  }
  EXPECT_GT(std::sqrt(dist), 0.5);
}

TEST(Mfcc, EmptyInputYieldsNoFrames) {
  audio::Waveform w(16000, std::size_t{0});
  const MfccFeatures f = ComputeMfcc(w);
  EXPECT_EQ(f.num_frames, 0u);
}

TEST(Mfcc, DeltasAreDifferences) {
  synth::DatasetBuilder db({.duration_s = 0.6});
  const auto spk = synth::SpeakerProfile::FromSeed(4);
  const auto utt = db.MakeUtterance(spk, 5);
  MfccConfig cfg;
  const MfccFeatures f = ComputeMfcc(utt.wave, cfg);
  const std::size_t base = cfg.num_coeffs;
  for (std::size_t t = 1; t + 1 < f.num_frames; t += 11) {
    for (std::size_t k = 0; k < base; k += 5) {
      const float expect =
          0.5f * (f.frame(t + 1)[k] - f.frame(t - 1)[k]);
      EXPECT_NEAR(f.frame(t)[base + k], expect, 1e-4);
    }
  }
}

// ComputeMfcc as it was before it read dsp::StftMagnitude: the full
// dsp::Stft, phase included, read through MagAt. Kept verbatim as the
// reference the magnitude-only path must match bit for bit.
MfccFeatures FullStftMfcc(const audio::Waveform& wave,
                          const MfccConfig& config) {
  NEC_CHECK(config.num_coeffs <= config.num_mels);
  const dsp::StftConfig stft{.fft_size = config.fft_size,
                             .win_length = config.win_length,
                             .hop_length = config.hop_length,
                             .window = dsp::WindowType::kHann};
  const dsp::Spectrogram spec = dsp::Stft(wave, stft);
  const std::size_t T = spec.num_frames();
  const std::size_t bins = spec.num_bins();
  const std::size_t base_dim = config.num_coeffs;
  const std::size_t dim = base_dim * (config.append_deltas ? 2 : 1);

  MfccFeatures feats;
  feats.num_frames = T;
  feats.dim = dim;
  feats.data.assign(T * dim, 0.0f);
  if (T == 0) return feats;

  const dsp::MelFilterbank bank(config.num_mels, bins,
                                static_cast<double>(wave.sample_rate()));
  std::vector<float> power(bins);
  std::vector<std::vector<float>> cepstra(T);
  for (std::size_t t = 0; t < T; ++t) {
    double energy = 0.0;
    for (std::size_t f = 0; f < bins; ++f) {
      const float m = spec.MagAt(t, f);
      power[f] = m * m;
      energy += power[f];
    }
    const std::vector<float> mel = bank.Apply(power);
    float max_mel = 0.0f;
    for (float m : mel) max_mel = std::max(max_mel, m);
    const float floor = std::max(max_mel * 3.16e-4f, 1e-20f);
    const std::vector<float> logmel = dsp::LogCompress(mel, floor);
    cepstra[t] = dsp::Dct2(logmel, config.num_coeffs);
    cepstra[t][0] = static_cast<float>(std::log(std::max(energy, 1e-12)));
  }

  if (config.cepstral_mean_norm) {
    float max_energy = -1e30f;
    for (const auto& c : cepstra) max_energy = std::max(max_energy, c[0]);
    const float gate = max_energy - 7.0f;
    std::vector<double> mean(base_dim, 0.0);
    std::size_t used = 0;
    for (const auto& c : cepstra) {
      if (c[0] < gate) continue;
      for (std::size_t k = 0; k < base_dim; ++k) mean[k] += c[k];
      ++used;
    }
    if (used > 0) {
      for (double& m : mean) m /= static_cast<double>(used);
      for (auto& c : cepstra) {
        for (std::size_t k = 0; k < base_dim; ++k)
          c[k] -= static_cast<float>(mean[k]);
      }
    }
  }

  for (std::size_t t = 0; t < T; ++t) {
    std::copy(cepstra[t].begin(), cepstra[t].end(),
              feats.data.begin() + t * dim);
  }

  if (config.append_deltas) {
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t prev = t > 0 ? t - 1 : 0;
      const std::size_t next = t + 1 < T ? t + 1 : T - 1;
      for (std::size_t k = 0; k < base_dim; ++k) {
        feats.data[t * dim + base_dim + k] =
            0.5f * (cepstra[next][k] - cepstra[prev][k]);
      }
    }
  }
  return feats;
}

TEST(Mfcc, BitIdenticalToFullStftPath) {
  synth::DatasetBuilder db({.duration_s = 1.0});
  const auto spk = synth::SpeakerProfile::FromSeed(6);
  const audio::Waveform speech = db.MakeUtterance(spk, 7).wave;
  MfccConfig plain;
  plain.append_deltas = false;
  plain.cepstral_mean_norm = false;
  MfccConfig odd;  // a frame count that is no multiple of any lane width
  odd.win_length = 320;
  odd.hop_length = 97;
  for (const MfccConfig& cfg : {MfccConfig{}, plain, odd}) {
    for (const audio::Waveform& wave :
         {speech, speech.Slice(0, 1234),
          audio::Waveform(16000, std::size_t{600})}) {
      const MfccFeatures want = FullStftMfcc(wave, cfg);
      const MfccFeatures got = ComputeMfcc(wave, cfg);
      ASSERT_EQ(got.num_frames, want.num_frames);
      ASSERT_EQ(got.dim, want.dim);
      ASSERT_EQ(got.data.size(), want.data.size());
      for (std::size_t i = 0; i < want.data.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data[i]),
                  std::bit_cast<std::uint32_t>(want.data[i]))
            << "samples=" << wave.size() << " hop=" << cfg.hop_length
            << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace nec::asr
