#include "encoder/las.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dsp/fft.h"
#include "dsp/window.h"

namespace nec::encoder {
namespace {

std::vector<float> LasImpl(const audio::Waveform& wave,
                           const LasConfig& config, float rel_threshold) {
  NEC_CHECK_MSG(!wave.empty(), "LAS of empty waveform");
  const dsp::StftConfig stft{.fft_size = config.fft_size,
                             .win_length = config.win_length,
                             .hop_length = config.hop_length,
                             .window = dsp::WindowType::kHann};
  const std::vector<float> mag = dsp::StftMagnitude(wave, stft);
  const std::size_t bins = stft.num_bins();
  const std::size_t frames = mag.size() / bins;
  std::vector<float> las(bins, 0.0f);

  // Frame energies for the voiced-frame gate.
  std::vector<float> frame_energy(frames, 0.0f);
  float max_energy = 0.0f;
  for (std::size_t t = 0; t < frames; ++t) {
    double acc = 0.0;
    for (std::size_t f = 0; f < bins; ++f) {
      const float m = mag[t * bins + f];
      acc += static_cast<double>(m) * m;
    }
    frame_energy[t] = static_cast<float>(acc);
    max_energy = std::max(max_energy, frame_energy[t]);
  }
  const float gate = rel_threshold * rel_threshold * max_energy;

  std::size_t used = 0;
  for (std::size_t t = 0; t < frames; ++t) {
    if (frame_energy[t] < gate) continue;
    for (std::size_t f = 0; f < bins; ++f) {
      las[f] += mag[t * bins + f];
    }
    ++used;
  }
  if (used == 0) return las;
  const float inv = 1.0f / static_cast<float>(used);
  for (float& v : las) v *= inv;
  return las;
}

}  // namespace

std::vector<float> LongTimeAverageSpectrum(const audio::Waveform& wave,
                                           const LasConfig& config) {
  return LasImpl(wave, config, 0.0f);
}

std::vector<float> VoicedLas(const audio::Waveform& wave,
                             const LasConfig& config, float rel_threshold) {
  return LasImpl(wave, config, rel_threshold);
}

}  // namespace nec::encoder
