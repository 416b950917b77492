// The end-to-end NEC pipeline (Fig. 6): enrollment → monitoring → shadow
// generation → ultrasonic broadcast.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "audio/waveform.h"
#include "channel/modulation.h"
#include "core/config.h"
#include "core/las_selector.h"
#include "core/memory.h"
#include "core/selector.h"
#include "dsp/stft.h"
#include "encoder/encoder.h"

namespace nec::core {

struct PipelineOptions {
  channel::ModulationConfig modulation;  ///< carrier f_c, alpha, air rate
};

/// Per-chunk scratch for the shadow hot path (DESIGN.md §5i). Owns
/// everything GenerateShadowInto reuses across chunks: the STFT/ISTFT
/// workspace, the chunk spectrogram, the shadow magnitude surface, and the
/// bump arena the selector's intermediate tensors live in (rewound at every
/// chunk boundary). A batch (GenerateShadowBatchInto) uses one scratch per
/// item for the first three and one arena for the whole batch. After the
/// first chunk every buffer is at steady-state size, so the per-chunk path
/// performs zero heap allocations. Contents never reach the output, so any
/// scratch serves any chunk; a thread that computes chunks borrows its own
/// (ChunkScratch::ThisThread), a session keeps none.
struct ShadowScratch {
  dsp::StftWorkspace stft;
  dsp::Spectrogram spec;
  std::vector<float> shadow_mag;
  Arena arena;
};

struct ShadowBatchRequest;

/// All per-chunk working memory of one thread that computes chunks (a
/// runtime pool worker, a batching dispatcher, or any caller of
/// StreamingProcessor::ProcessChunkInto). A chunk needs it only while the
/// thread computes it, so resident scratch scales with threads, not with
/// sessions. Two independent halves, because a dispatcher completes
/// degraded chunks singly while its batch's shadows still wait in the
/// slots:
///  - single chunk: `single` (its arena also hosts the thread's batched
///    selector forward, which never overlaps a single chunk) and the
///    popped chunk, baseband shadow and modulated output waveforms;
///  - batch: slot j holds item j's scratch and shadow. A std::deque, so
///    growing never moves a slot (ShadowScratch holds a non-movable
///    Arena). The batch's bookkeeping (each item's route, the items in
///    the batched forward and their requests) is kept here too, so a
///    warm batch allocates none of it.
struct ChunkScratch {
  struct Slot {
    ShadowScratch scratch;
    audio::Waveform shadow;
    /// Set when the batched forward failed on this item alone.
    std::exception_ptr error;
  };

  ShadowScratch single;
  audio::Waveform chunk, shadow, modulated;
  std::deque<Slot> slots;
  std::vector<std::uint8_t> routes;  ///< per batch item, the owner's enum
  std::vector<std::size_t> batched;  ///< slot j serves item batched[j]
  std::vector<ShadowBatchRequest> requests;

  /// The calling thread's scratch, built on first use and freed when the
  /// thread exits. Never share the reference with another thread.
  static ChunkScratch& ThisThread();
};

/// Which shadow generator the pipeline runs (neural is the paper system;
/// the LAS mask is the DSP ablation).
enum class SelectorKind { kNeural, kLasMask };

class NecPipeline {
 public:
  /// Takes ownership of a trained selector and an encoder.
  NecPipeline(Selector selector,
              std::shared_ptr<const encoder::SpeakerEncoder> encoder,
              PipelineOptions options = {});

  /// Shares an immutable trained selector with other pipelines. This is the
  /// nec::runtime path: every concurrent session holds the same weight set
  /// (inference is const — see Selector::ComputeShadowInto); only
  /// enrollment state and the LAS ablation profile are per-pipeline.
  NecPipeline(std::shared_ptr<const Selector> selector,
              std::shared_ptr<const encoder::SpeakerEncoder> encoder,
              PipelineOptions options = {});

  /// Enrolls the target speaker from reference clips (paper: 3 clips of
  /// 3 s). Computes the d-vector and the LAS profile for the ablation
  /// selector.
  void Enroll(std::span<const audio::Waveform> references);

  /// Generates the baseband shadow waveform for a monitored mixed clip:
  /// STFT → selector → signed shadow magnitudes → inverse STFT with the
  /// mixed signal's phase (§IV-C1). Every intermediate lives in `scratch`
  /// (spectrogram, shadow surface, selector tensors via the scratch arena)
  /// and the result is written into `out` in place. With a warm scratch
  /// (one chunk of this shape already seen) the call performs no heap
  /// allocation; tests/test_hot_path.cpp asserts 0 mallocs/chunk.
  /// The result has the property x_mixed + x_shadow ≈ x_background at the
  /// monitor's scale. Const: concurrent callers are safe once enrollment
  /// has happened, each with its own scratch. The neural selector runs as
  /// GenerateShadowBatchInto at B = 1.
  void GenerateShadowInto(const audio::Waveform& mixed, SelectorKind kind,
                          ShadowScratch& scratch, audio::Waveform& out) const;

  /// GenerateShadowInto with a local scratch, for offline callers that
  /// process one clip at a time.
  audio::Waveform GenerateShadow(
      const audio::Waveform& mixed,
      SelectorKind kind = SelectorKind::kNeural) const;

  /// The ideal shadow computed from ground-truth stems (oracle): exactly
  /// S_bk - S_mixed. Upper-bounds what any selector can achieve; used by
  /// tests and the offset study (Fig. 9), which the paper also runs with
  /// known signals.
  audio::Waveform OracleShadow(const audio::Waveform& mixed,
                               const audio::Waveform& background) const;

  bool enrolled() const { return dvector_.has_value(); }
  const std::vector<float>& dvector() const;

  const NecConfig& config() const { return selector_->config(); }
  const PipelineOptions& options() const { return options_; }
  const Selector& selector() const { return *selector_; }
  const encoder::SpeakerEncoder& encoder() const { return *encoder_; }

  /// Shared handles, for fanning more pipelines out of the same weights.
  std::shared_ptr<const Selector> shared_selector() const {
    return selector_;
  }
  std::shared_ptr<const encoder::SpeakerEncoder> shared_encoder() const {
    return encoder_;
  }

 private:
  std::shared_ptr<const Selector> selector_;
  LasSelector las_selector_;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  PipelineOptions options_;
  std::optional<std::vector<float>> dvector_;
};

/// One item of a batched shadow-generation call (see
/// GenerateShadowBatchInto).
struct ShadowBatchRequest {
  const NecPipeline* pipeline = nullptr;   ///< enrolled pipeline
  const audio::Waveform* mixed = nullptr;  ///< same length for every item
  ShadowScratch* scratch = nullptr;  ///< the item's STFT, spectrogram, surface
  audio::Waveform* out = nullptr;    ///< receives the item's shadow
};

/// Batched GenerateShadowInto over the NEURAL selector: per-item STFT, one
/// batched selector forward across all items, then per-item inverse STFT.
/// Every pipeline in the batch must share the same selector instance
/// (shared_selector()) and every mixed chunk the same length / sample rate;
/// no two items may share a scratch or an output. The selector's
/// intermediates live in `arena` (rewound before returning), not in the
/// items' scratch arenas. Bit-identical, per item, to
/// `req.pipeline->GenerateShadow(*req.mixed)` — the property the runtime
/// micro-batcher (runtime/batcher.h) relies on to coalesce sessions without
/// changing their emitted shadows. With warm scratches and arena, the call
/// performs no heap allocation.
void GenerateShadowBatchInto(std::span<const ShadowBatchRequest> requests,
                             Arena& arena);

}  // namespace nec::core
