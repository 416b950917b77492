// Deterministic LAS-mask selector — DSP-only ablation baseline.
//
// Where the neural Selector learns the mapping, this baseline directly uses
// §III: the target speaker's LAS says which frequency bins the target
// occupies; frames whose spectrum correlates with the target LAS are
// attributed to the target. The shadow is a Wiener-style negative mask:
//
//     S_shadow(t,f) = -activity(t) * share(f) * S_mixed(t,f)
//
// with share(f) = LAS_t(f)^2 / (LAS_t(f)^2 + c) and activity(t) the cosine
// similarity between frame t's spectrum and the target LAS, rectified.
// Used by bench_ablation_selector to quantify what the DNN adds.
#pragma once

#include <span>
#include <vector>

#include "audio/waveform.h"
#include "core/config.h"
#include "dsp/stft.h"

namespace nec::core {

class LasSelector {
 public:
  explicit LasSelector(const NecConfig& config);

  /// Enrolls the target from reference clips (computes the reference LAS
  /// at the pipeline's spectrogram resolution).
  void Enroll(std::span<const audio::Waveform> references);

  /// Shadow magnitude surface for a mixed spectrogram; same contract as
  /// Selector::ComputeShadow.
  std::vector<float> ComputeShadow(const dsp::Spectrogram& spec) const;

  /// ComputeShadow into a caller-owned surface (resized in place); same
  /// contract as Selector::ComputeShadowInto. Allocation-free once warm —
  /// the per-bin share profile lives in thread_local scratch (the repo's
  /// Conv2D idiom), so the LAS ablation rides the same zero-malloc chunk
  /// path as the neural selector.
  void ComputeShadowInto(const dsp::Spectrogram& spec,
                         std::vector<float>& out) const;

  bool enrolled() const { return !reference_las_.empty(); }

  /// The enrolled per-bin target profile (unit L2 norm; empty before
  /// Enroll).
  const std::vector<float>& reference_las() const { return reference_las_; }

 private:
  NecConfig config_;
  std::vector<float> reference_las_;  ///< per-bin target profile
};

}  // namespace nec::core
