#include "core/streaming.h"

#include <algorithm>

#include "channel/modulation.h"
#include "common/check.h"
#include "obs/trace.h"

namespace nec::core {
StreamingProcessor::StreamingProcessor(const NecPipeline& pipeline,
                                       double chunk_s,
                                       SelectorKind kind)
    : pipeline_(pipeline),
      kind_(kind),
      chunk_samples_(static_cast<std::size_t>(
          chunk_s * pipeline.config().sample_rate)),
      buffer_(pipeline.config().sample_rate, std::size_t{0}) {
  NEC_CHECK_MSG(chunk_samples_ >= pipeline.config().stft.win_length,
                "chunk shorter than one analysis window");
}

void StreamingProcessor::ProcessChunkInto(const audio::Waveform& chunk,
                                          audio::Waveform& out) {
  NEC_TRACE_SPAN("stream.process_chunk");
  ChunkScratch& scratch = ChunkScratch::ThisThread();
  pipeline_.GenerateShadowInto(chunk, kind_, scratch.single, scratch.shadow);
  CompleteShadowChunkInto(scratch.shadow, out);
}

void StreamingProcessor::CompleteShadowChunkInto(
    const audio::Waveform& shadow, audio::Waveform& out) {
  channel::ModulationConfig mod = pipeline_.options().modulation;
  if (mod.reference_peak <= 0.0) {
    // No explicit stream reference configured: latch one from the first
    // non-silent shadow so every later chunk is modulated with the same
    // gain. The latch is a pure function of the chunk sequence, so
    // concurrent runtime sessions replaying the same stream stay
    // bit-identical to a sequential processor.
    if (mod_reference_peak_ <= 0.0) {
      const float peak = shadow.Peak();
      if (peak > 0.0f) mod_reference_peak_ = peak;
    }
    if (mod_reference_peak_ > 0.0) mod.reference_peak = mod_reference_peak_;
  }
  NEC_TRACE_SPAN("channel.modulate_am");
  channel::ModulateAmInto(shadow, mod, resample_plan_, out);
}

void StreamingProcessor::BufferSamples(std::span<const float> samples) {
  buffer_.data().insert(buffer_.data().end(), samples.begin(),
                        samples.end());
}

void StreamingProcessor::PopChunkInto(audio::Waveform& chunk) {
  NEC_CHECK_MSG(HasFullChunk(), "PopChunkInto without a full buffered chunk");
  chunk.AssignSilence(buffer_.sample_rate(), chunk_samples_);
  std::copy(buffer_.data().begin(),
            buffer_.data().begin() +
                static_cast<std::ptrdiff_t>(chunk_samples_),
            chunk.data().begin());
  buffer_.data().erase(
      buffer_.data().begin(),
      buffer_.data().begin() + static_cast<std::ptrdiff_t>(chunk_samples_));
}

std::size_t StreamingProcessor::DropBuffered() {
  const std::size_t dropped = buffer_.size();
  buffer_.data().clear();
  return dropped;
}

std::optional<audio::Waveform> StreamingProcessor::Push(
    std::span<const float> samples) {
  buffer_.data().insert(buffer_.data().end(), samples.begin(),
                        samples.end());
  if (buffer_.size() < chunk_samples_) return std::nullopt;

  // Drain every complete chunk (a single Push may deliver several) and
  // concatenate their modulated output in stream order. Chunks are read at
  // an advancing offset into the thread's scratch waveforms and the
  // consumed prefix is erased once afterwards; only the returned
  // concatenation allocates (the per-chunk pipeline runs through the Into
  // path).
  ChunkScratch& scratch = ChunkScratch::ThisThread();
  audio::Waveform out;
  std::size_t pos = 0;
  while (buffer_.size() - pos >= chunk_samples_) {
    scratch.chunk.AssignSilence(buffer_.sample_rate(), chunk_samples_);
    std::copy(buffer_.data().begin() + static_cast<std::ptrdiff_t>(pos),
              buffer_.data().begin() +
                  static_cast<std::ptrdiff_t>(pos + chunk_samples_),
              scratch.chunk.data().begin());
    ProcessChunkInto(scratch.chunk, scratch.modulated);
    out.Append(scratch.modulated);
    pos += chunk_samples_;
  }
  buffer_.data().erase(
      buffer_.data().begin(),
      buffer_.data().begin() + static_cast<std::ptrdiff_t>(pos));
  return out;
}

void StreamingProcessor::Reset() {
  buffer_ = audio::Waveform(pipeline_.config().sample_rate, std::size_t{0});
  mod_reference_peak_ = 0.0;
}

void StreamingProcessor::RestoreStreamState(std::span<const float> tail,
                                            double reference_peak) {
  NEC_CHECK_MSG(buffer_.empty() && mod_reference_peak_ == 0.0,
                "RestoreStreamState on a non-fresh processor");
  buffer_.data().assign(tail.begin(), tail.end());
  mod_reference_peak_ = reference_peak;
}

std::optional<audio::Waveform> StreamingProcessor::Flush() {
  if (buffer_.empty()) return std::nullopt;
  audio::Waveform chunk = buffer_.Slice(0, chunk_samples_);  // zero-padded
  buffer_ = audio::Waveform(pipeline_.config().sample_rate, std::size_t{0});
  audio::Waveform out;
  ProcessChunkInto(chunk, out);
  return out;
}

}  // namespace nec::core
