#include "asr/mfcc.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dsp/mel.h"
#include "dsp/stft.h"

namespace nec::asr {

MfccFeatures ComputeMfcc(const audio::Waveform& wave,
                         const MfccConfig& config) {
  NEC_CHECK(config.num_coeffs <= config.num_mels);
  const dsp::StftConfig stft{.fft_size = config.fft_size,
                             .win_length = config.win_length,
                             .hop_length = config.hop_length,
                             .window = dsp::WindowType::kHann};
  const std::vector<float> mag = dsp::StftMagnitude(wave, stft);
  const std::size_t bins = stft.num_bins();
  const std::size_t T = mag.size() / bins;
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
      const float m = mag[t * bins + f];
      power[f] = m * m;
      energy += power[f];
    }
    const std::vector<float> mel = bank.Apply(power);
    // Relative log floor, 35 dB below the frame's strongest band. Two
    // jobs: (1) gain invariance — an absolute floor would clamp different
    // bands at different input gains; (2) noise robustness — bands more
    // than 35 dB down carry recorder noise rather than speech, and
    // clamping them to a common floor keeps templates (recorded clean)
    // comparable with queries taken through a noisy microphone chain.
    float max_mel = 0.0f;
    for (float m : mel) max_mel = std::max(max_mel, m);
    const float floor = std::max(max_mel * 3.16e-4f, 1e-20f);
    const std::vector<float> logmel = dsp::LogCompress(mel, floor);
    cepstra[t] = dsp::Dct2(logmel, config.num_coeffs);
    // Replace c0 with log frame energy (standard practice).
    cepstra[t][0] = static_cast<float>(std::log(std::max(energy, 1e-12)));
  }

  if (config.cepstral_mean_norm) {
    // Energy-gated CMN: silent frames sit on the log floor and would bias
    // the mean (and break gain invariance); average speech frames only.
    float max_energy = -1e30f;
    for (const auto& c : cepstra) max_energy = std::max(max_energy, c[0]);
    const float gate = max_energy - 7.0f;  // ~30 dB below the loudest frame
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
    // Two-frame symmetric difference, clamped at the edges.
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

}  // namespace nec::asr
