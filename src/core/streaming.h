// Real-time chunked processing.
//
// The paper's deployment (§VI-C, Table II) processes the monitored stream
// in 1 s chunks: each chunk goes encoder-conditioned selector → inverse
// STFT → ultrasonic modulation, and the total per-chunk latency must stay
// under the ~300 ms overshadowing tolerance (§IV-C2). StreamingProcessor
// reproduces that loop; per-stage time lives in the obs trace spans and
// the runtime's RuntimeStats histograms.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "audio/waveform.h"
#include "core/pipeline.h"

namespace nec::core {

class StreamingProcessor {
 public:
  /// `chunk_s`: chunk duration (paper uses 1 s clips in Table II). The
  /// pipeline is borrowed const — processing never mutates it, so many
  /// processors (one per runtime session) can reference pipelines sharing
  /// one trained weight set.
  StreamingProcessor(const NecPipeline& pipeline, double chunk_s = 1.0,
                     SelectorKind kind = SelectorKind::kNeural);

  /// Feeds monitored samples; returns a modulated shadow chunk whenever a
  /// full chunk has accumulated (at the air sample rate), else nullopt.
  std::optional<audio::Waveform> Push(std::span<const float> samples);

  /// Flushes a final partial chunk (zero-padded) if any samples remain.
  std::optional<audio::Waveform> Flush();

  /// Discards buffered samples and the stream-wide modulation-reference
  /// latch, starting a fresh stream (nec::runtime uses this to return a
  /// faulted session to service). Must be called from the single thread
  /// that owns the processor.
  void Reset();

  // --- Decomposed chunk path (runtime micro-batching; see DESIGN.md §5e).
  //
  // Push == BufferSamples + { PopChunkInto → ProcessChunkInto } per full
  // chunk, and ProcessChunkInto == GenerateShadowInto →
  // CompleteShadowChunkInto. The batched runtime splits the loop across
  // threads: the session strand only buffers and pops, the dispatcher runs
  // the batched shadow generation and then completes each chunk IN STREAM
  // ORDER — CompleteShadowChunkInto latches the stream-wide modulation
  // reference from the first non-silent shadow, so completion order is part
  // of the output bits.

  /// Appends monitored samples without processing anything.
  void BufferSamples(std::span<const float> samples);

  /// True when at least chunk_samples() are buffered.
  bool HasFullChunk() const { return buffer_.size() >= chunk_samples_; }

  /// Pops the oldest full chunk (requires HasFullChunk()) into a
  /// caller-owned buffer (rebound in place; capacity reused).
  void PopChunkInto(audio::Waveform& chunk);

  /// Second half of the chunk path: stream-reference latch + ultrasonic
  /// modulation for a shadow produced externally (batched
  /// GenerateShadowBatchInto). Chunks of one processor must be completed in
  /// the order they were popped. Reuses this processor's cached modulation
  /// resampler plan, so a warm call performs no allocation.
  void CompleteShadowChunkInto(const audio::Waveform& shadow,
                               audio::Waveform& out);

  /// Full zero-allocation chunk path: GenerateShadowInto through this
  /// processor's ShadowScratch, then CompleteShadowChunkInto. Bit-identical
  /// to Push-ing the same chunk; `chunk` must be exactly chunk_samples()
  /// long.
  void ProcessChunkInto(const audio::Waveform& chunk, audio::Waveform& out);

  // --- Stream-state export/restore (fleet session migration; §5h).
  //
  // The complete mid-stream computational state is the buffered
  // partial-chunk tail plus the modulation-reference latch: restoring
  // both onto a fresh processor (same weights, same options) makes its
  // future output bit-identical to the original continuing.

  /// Buffered samples that have not yet formed a full chunk.
  std::span<const float> buffered_samples() const {
    return buffer_.samples();
  }

  /// The latched stream-wide modulation reference (0.0 = not latched).
  double modulation_reference_peak() const { return mod_reference_peak_; }

  /// Installs migrated stream state. The processor must be fresh (empty
  /// buffer, unlatched reference) — migration restores onto a
  /// newly-reset processor, never merges.
  void RestoreStreamState(std::span<const float> tail,
                          double reference_peak);

  std::size_t chunk_samples() const { return chunk_samples_; }
  SelectorKind kind() const { return kind_; }
  const NecPipeline& pipeline() const { return pipeline_; }

  /// Full per-chunk scratch (workspace, spectrogram, shadow surface,
  /// selector arena) for whoever generates this processor's shadows (the
  /// processor itself, or the runtime dispatcher in batched mode). Scratch
  /// only — contents never affect output bits — but not shareable across
  /// concurrent callers.
  ShadowScratch& shadow_scratch() { return scratch_; }

 private:
  const NecPipeline& pipeline_;
  SelectorKind kind_;
  std::size_t chunk_samples_;
  audio::Waveform buffer_;
  /// Reused per-chunk scratch (DESIGN.md §5i) — the hot path allocates
  /// nothing after the first chunk. Processors are single-threaded by
  /// contract.
  ShadowScratch scratch_;
  /// Cached modulation resampler taps (16 kHz baseband → air rate) and the
  /// bound carrier table.
  dsp::ResamplerPlan resample_plan_;
  /// Reused Push-path buffers: popped chunk, baseband shadow, modulated
  /// output of the chunk in flight.
  audio::Waveform chunk_wave_;
  audio::Waveform shadow_wave_;
  audio::Waveform modulated_wave_;
  /// Stream-wide modulation reference, latched from the first non-silent
  /// shadow chunk when options().modulation.reference_peak is 0. One gain
  /// for the whole stream keeps the emitted power coefficient from
  /// drifting chunk-to-chunk (per-chunk peak normalization boosted quiet
  /// chunks and attenuated loud ones).
  double mod_reference_peak_ = 0.0;
};

}  // namespace nec::core
