#include "core/multi_speaker.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dsp/stft.h"

namespace nec::core {

MultiSpeakerProtector::MultiSpeakerProtector(const NecPipeline& pipeline)
    : pipeline_(pipeline) {}

std::size_t MultiSpeakerProtector::EnrollTarget(
    std::span<const audio::Waveform> references) {
  dvectors_.push_back(pipeline_.encoder().EmbedReferences(references));
  return dvectors_.size() - 1;
}

audio::Waveform MultiSpeakerProtector::GenerateShadow(
    const audio::Waveform& mixed, MultiStrategy strategy) {
  NEC_CHECK_MSG(!dvectors_.empty(), "enroll at least one target first");
  NEC_CHECK(mixed.sample_rate() == pipeline_.config().sample_rate);
  const dsp::StftConfig& stft = pipeline_.config().stft;
  const dsp::Spectrogram spec = dsp::Stft(mixed, stft);

  std::vector<float> total_shadow;
  if (strategy == MultiStrategy::kMergedEmbedding) {
    // One pseudo-speaker: the normalized mean of the enrolled d-vectors.
    std::vector<float> merged(dvectors_[0].size(), 0.0f);
    for (const auto& d : dvectors_) {
      for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += d[i];
    }
    double norm = 0.0;
    for (float v : merged) norm += static_cast<double>(v) * v;
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (float& v : merged) v = static_cast<float>(v / norm);
    }
    pipeline_.selector().ComputeShadowInto(spec, merged, total_shadow);
  } else {
    // Iterative residual: each pass cancels one target from what the
    // previous passes left standing.
    dsp::Spectrogram residual = spec;
    total_shadow.assign(spec.mag().size(), 0.0f);
    std::vector<float> shadow;
    for (const auto& d : dvectors_) {
      pipeline_.selector().ComputeShadowInto(residual, d, shadow);
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        total_shadow[i] += shadow[i];
        residual.mag()[i] =
            std::max(0.0f, residual.mag()[i] + shadow[i]);
      }
    }
  }

  return dsp::IstftWithPhase(total_shadow, spec, stft,
                             pipeline_.config().sample_rate, mixed.size());
}

}  // namespace nec::core
