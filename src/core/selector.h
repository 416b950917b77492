// The NEC Selector DNN (§IV-B1, Fig. 7).
//
// Architecture, following the paper exactly (widths parameterized by
// NecConfig):
//
//   input: mixed magnitude spectrogram, frame-major (T, F)
//     Conv 1x7  (frequency-direction "flat" filters — each covers the
//               bandwidth of an individual formant)           + ReLU
//     Conv 7x1  (time direction, phoneme-scale context)       + ReLU
//     Conv 5x5 dilation (1,1)                                 + ReLU
//     Conv 5x5 dilation (2,1)                                 + ReLU
//     Conv 5x5 dilation (4,1)                                 + ReLU
//     Conv 5x5 dilation (8,1)  (85–610 ms effective context)  + ReLU
//     Conv 5x5 → 2 channels → reshape to (T, 2F)
//     concat d-vector at every frame → (T, 2F + E)
//     Linear → H + ReLU
//     Linear → F      (linear output: the shadow is signed)
//
// 6 CNN layers + 2 FC layers total, no LSTM — the paper's efficiency
// argument against VoiceFilter.
//
// The network is trained with the Eq. 6 objective (see trainer.h):
//     argmin || (S_mixed + S_shadow) - S_bk ||^2
// so Forward() returns the shadow spectrogram to superpose on the mix.
//
// Input normalization: spectrogram cells are scaled by 1/rms(S_mixed)
// before the network and the shadow is scaled back after — superposition
// is linear, so this per-instance gain cancels out exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "dsp/stft.h"
#include "nn/layers.h"

namespace nec::core {

struct ShadowBatchRequest;  // core/pipeline.h

class Selector {
 public:
  Selector(const NecConfig& config, std::uint64_t init_seed = 11);

  /// Runs the selector on a (T, F) magnitude tensor plus the speaker
  /// embedding; returns the (T, F) shadow tensor. Caches activations for
  /// Backward when `training` is true. Mutates layer caches — training /
  /// single-thread use only (see nn/layers.h thread-safety contract).
  nn::Tensor Forward(const nn::Tensor& mixed_mag,
                     const std::vector<float>& dvector, bool training);

  /// Backprop from dLoss/dShadow; accumulates parameter gradients.
  void Backward(const nn::Tensor& grad_shadow);

  std::vector<nn::Param*> Params();

  /// Spectrogram in, shadow magnitude surface out (applies the
  /// per-instance gain normalization described above) — the batched core
  /// at B = 1. `out` is resized in place, so its capacity is reused across
  /// chunks. The result can be superposed with spec's magnitudes or
  /// rendered via IstftWithPhase. Const: writes no member state, so any
  /// number of threads may run it concurrently on one shared trained
  /// Selector (nec::runtime sessions share weights via
  /// shared_ptr<const Selector>). Run under an ArenaScope, the network's
  /// intermediate tensors bump-allocate instead of hitting the heap — the
  /// per-chunk serving path does exactly that. Bit-identical to Forward on
  /// the gain-normalized magnitudes, divided back by the gain.
  void ComputeShadowInto(const dsp::Spectrogram& spec,
                         const std::vector<float>& dvector,
                         std::vector<float>& out) const;

  /// Value wrapper over the batched core: each item keeps its own gain
  /// normalization, so every item is bit-identical to ComputeShadowInto on
  /// that item alone. All spectrograms must share (T, F).
  std::vector<std::vector<float>> ComputeShadowBatch(
      const std::vector<const dsp::Spectrogram*>& specs,
      const std::vector<const std::vector<float>*>& dvectors) const;

  void Save(const std::string& path) const;
  static Selector Load(const std::string& path);

  const NecConfig& config() const { return config_; }

  /// MAC count of the most recent Forward (Table II runtime analysis).
  std::size_t LastForwardMacs() const;

 private:
  friend void GenerateShadowBatchInto(
      std::span<const ShadowBatchRequest> requests, Arena& arena);

  /// The one inference core: B same-shaped (T, F) spectrograms with their
  /// d-vectors in, B shadow surfaces out (each resized in place). Per-item
  /// arithmetic does not depend on B or on the other items — the runtime
  /// micro-batcher (runtime/batcher.h) relies on this to coalesce
  /// concurrent sessions' chunks without changing their emitted bits.
  /// Intermediates are tensors, so they live in the caller's ArenaScope.
  void ComputeShadowBatchInto(
      std::span<const dsp::Spectrogram* const> specs,
      std::span<const std::vector<float>* const> dvectors,
      std::span<std::vector<float>* const> outs) const;

  NecConfig config_;
  // Conv stack (owning pointers so layers can be heterogeneous later).
  std::vector<std::unique_ptr<nn::Conv2D>> convs_;
  std::vector<nn::ReLU> conv_relus_;
  nn::ReLU fc_relu_;
  std::unique_ptr<nn::Linear> fc1_;
  std::unique_ptr<nn::Linear> fc2_;
  nn::Sigmoid mask_sigmoid_;
  nn::Tensor mask_input_cache_;

  // Forward caches for the reshape/concat boundary.
  std::size_t cached_T_ = 0;
};

}  // namespace nec::core
