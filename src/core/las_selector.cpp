#include "core/las_selector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nec::core {

LasSelector::LasSelector(const NecConfig& config) : config_(config) {}

void LasSelector::Enroll(std::span<const audio::Waveform> references) {
  NEC_CHECK_MSG(!references.empty(), "LasSelector enrollment needs clips");
  const std::size_t F = config_.num_bins();
  reference_las_.assign(F, 0.0f);

  for (const audio::Waveform& ref : references) {
    const std::vector<float> mag = dsp::StftMagnitude(ref, config_.stft);
    const std::size_t frames = mag.size() / F;
    // Energy-gated frame average (silence diluted out).
    std::vector<double> acc(F, 0.0);
    double max_e = 0.0;
    std::vector<double> frame_e(frames, 0.0);
    for (std::size_t t = 0; t < frames; ++t) {
      for (std::size_t f = 0; f < F; ++f) {
        frame_e[t] += static_cast<double>(mag[t * F + f]) * mag[t * F + f];
      }
      max_e = std::max(max_e, frame_e[t]);
    }
    std::size_t used = 0;
    for (std::size_t t = 0; t < frames; ++t) {
      if (frame_e[t] < 0.01 * max_e) continue;
      for (std::size_t f = 0; f < F; ++f) acc[f] += mag[t * F + f];
      ++used;
    }
    if (used == 0) continue;
    for (std::size_t f = 0; f < F; ++f) {
      reference_las_[f] += static_cast<float>(acc[f] / used);
    }
  }
  // Normalize to unit L2 so the mask constant below is scale-free.
  double norm = 0.0;
  for (float v : reference_las_) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (float& v : reference_las_) v = static_cast<float>(v / norm);
  }
}

void LasSelector::ComputeShadowInto(const dsp::Spectrogram& spec,
                                    std::vector<float>& out) const {
  NEC_CHECK_MSG(enrolled(), "LasSelector used before enrollment");
  const std::size_t T = spec.num_frames(), F = spec.num_bins();
  NEC_CHECK(F == reference_las_.size());

  // Per-bin share: Wiener-style with the mean squared LAS as the noise
  // constant.
  double mean_sq = 0.0;
  for (float v : reference_las_) mean_sq += static_cast<double>(v) * v;
  mean_sq /= static_cast<double>(F);
  thread_local std::vector<float> share;
  share.resize(F);
  for (std::size_t f = 0; f < F; ++f) {
    const double l2 = static_cast<double>(reference_las_[f]) *
                      reference_las_[f];
    share[f] = static_cast<float>(l2 / (l2 + mean_sq));
  }

  out.assign(T * F, 0.0f);
  for (std::size_t t = 0; t < T; ++t) {
    // Frame activity: rectified cosine similarity with the target LAS.
    double dot = 0.0, ee = 0.0;
    for (std::size_t f = 0; f < F; ++f) {
      const double m = spec.MagAt(t, f);
      dot += m * reference_las_[f];
      ee += m * m;
    }
    const double activity =
        ee > 1e-18 ? std::max(0.0, dot / std::sqrt(ee)) : 0.0;
    for (std::size_t f = 0; f < F; ++f) {
      out[t * F + f] = -static_cast<float>(activity) * share[f] *
                       spec.MagAt(t, f);
    }
  }
}

std::vector<float> LasSelector::ComputeShadow(
    const dsp::Spectrogram& spec) const {
  std::vector<float> out;
  ComputeShadowInto(spec, out);
  return out;
}

}  // namespace nec::core
