// Stage probe: the per-chunk pipeline timed stage by stage, single-threaded.
//
// It chains the public stage calls exactly as
// StreamingProcessor::ProcessChunkInto does — STFT, selector under an
// ArenaScope, ISTFT with the mix's phase, AM modulation with the latched
// stream reference — on warm chunks, checks the chained output is
// bit-identical to ProcessChunkInto on the same chunk, and checks that the
// stage times add up to the whole (the ledger gap).
#include <cmath>
#include <cstring>

#include "channel/modulation.h"
#include "common.h"
#include "core/memory.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "dsp/resample.h"
#include "dsp/stft.h"
#include "net/frame.h"
#include "nn/tensor.h"

namespace nec::bench {
namespace {

constexpr std::size_t kWarmChunks = 2;
constexpr double kMaxLedgerGapPct = 5.0;

}  // namespace

bool RunStageProbe(Model model, const Inputs& inputs, std::size_t reps,
                   std::map<std::string, Metric>* layer, std::string* error) {
  const auto selector = MakeSelector(model);
  const auto encoder = MakeEncoder(model);
  const core::NecConfig& cfg = selector->config();

  // Enrollment, as a shard runs it per kOpenSession: synthesise the
  // reference clips, then enroll the pipeline on them.
  core::NecPipeline pipeline(selector, encoder, {});
  std::vector<double> synth_ms, enroll_ms;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto a = Clock::now();
    const std::vector<audio::Waveform> refs = inputs.References(0);
    const auto b = Clock::now();
    pipeline.Enroll(refs);
    const auto c = Clock::now();
    synth_ms.push_back(MsBetween(a, b));
    enroll_ms.push_back(MsBetween(b, c));
    RecordSpan("probe.enroll_refs", a, b);
    RecordSpan("probe.enroll", b, c);
  }

  std::vector<audio::Waveform> chunks;
  for (std::size_t k = 0; k < kWarmChunks + reps; ++k) {
    audio::Waveform chunk(kInputRate, kChunkSamples);
    inputs.FillChunk(0, k, chunk.data().data());
    chunks.push_back(std::move(chunk));
  }

  core::StreamingProcessor proc(pipeline, 1.0, core::SelectorKind::kNeural);
  core::ShadowScratch scratch;
  dsp::ResamplerPlan mod_plan, resample_plan;
  audio::Waveform whole, shadow, chained, resampled;
  std::vector<double> whole_ms, stft_ms, selector_ms, istft_ms, modulate_ms,
      resample_ms, gap_pct;
  bool exact = true;
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    const audio::Waveform& chunk = chunks[k];
    const bool measured = k >= kWarmChunks;
    // Alternate which side runs first so neither always finds the chunk
    // in cache.
    const bool whole_first = k % 2 == 0;
    Clock::time_point w0, w1;
    const auto run_whole = [&] {
      w0 = Clock::now();
      proc.ProcessChunkInto(chunk, whole);
      w1 = Clock::now();
    };
    if (whole_first) run_whole();

    // The modulation reference ProcessChunkInto used: the stream latch
    // (set from the first non-silent shadow) unless one is configured.
    channel::ModulationConfig mod = pipeline.options().modulation;
    if (mod.reference_peak <= 0.0 && proc.modulation_reference_peak() > 0.0) {
      mod.reference_peak = proc.modulation_reference_peak();
    }
    const auto t0 = Clock::now();
    dsp::Stft(chunk, cfg.stft, scratch.stft, scratch.spec);
    const auto t1 = Clock::now();
    {
      core::ArenaScope arena_scope(scratch.arena);
      selector->ComputeShadowInto(scratch.spec, pipeline.dvector(),
                                  scratch.shadow_mag);
    }
    const auto t2 = Clock::now();
    dsp::IstftWithPhaseInto(scratch.shadow_mag, scratch.spec, cfg.stft,
                            cfg.sample_rate, chunk.size(), scratch.stft,
                            shadow);
    const auto t3 = Clock::now();
    channel::ModulateAmInto(shadow, mod, mod_plan, chained);
    const auto t4 = Clock::now();
    dsp::ResampleInto(shadow, mod.air_sample_rate, resample_plan, resampled);
    const auto t5 = Clock::now();
    if (!whole_first) run_whole();

    if (!measured) continue;
    exact &= chained.size() == whole.size() &&
             std::memcmp(chained.data().data(), whole.data().data(),
                         whole.size() * sizeof(float)) == 0;
    whole_ms.push_back(MsBetween(w0, w1));
    stft_ms.push_back(MsBetween(t0, t1));
    selector_ms.push_back(MsBetween(t1, t2));
    istft_ms.push_back(MsBetween(t2, t3));
    modulate_ms.push_back(MsBetween(t3, t4));
    resample_ms.push_back(MsBetween(t4, t5));
    // Whole and chained ran back to back on the same chunk, so their
    // difference is taken per chunk: a slow moment of the machine then
    // lands on both sides instead of on one median.
    gap_pct.push_back(100.0 * (MsBetween(t0, t4) - whole_ms.back()) /
                      whole_ms.back());
    RecordSpan("probe.process_chunk", w0, w1);
    RecordSpan("probe.chained_stages", t0, t4);
    RecordSpan("probe.stft", t0, t1);
    RecordSpan("probe.selector", t1, t2);
    RecordSpan("probe.istft", t2, t3);
    RecordSpan("probe.modulate", t3, t4);
    RecordSpan("probe.resample", t4, t5);
  }

  // Batched forward over four spectrograms (the replay batcher's shape).
  std::vector<dsp::Spectrogram> specs(4);
  dsp::StftWorkspace ws;
  for (std::size_t b = 0; b < specs.size(); ++b) {
    dsp::Stft(chunks[kWarmChunks + b % reps], cfg.stft, ws, specs[b]);
  }
  const std::vector<const dsp::Spectrogram*> spec_ptrs = {
      &specs[0], &specs[1], &specs[2], &specs[3]};
  const std::vector<const std::vector<float>*> dvectors(4, &pipeline.dvector());
  std::vector<double> batch_ms;
  for (std::size_t r = 0; r <= reps; ++r) {
    const auto a = Clock::now();
    const auto shadows = selector->ComputeShadowBatch(spec_ptrs, dvectors);
    const auto b = Clock::now();
    if (r > 0) batch_ms.push_back(MsBetween(a, b) / 4.0);  // r = 0 warms
    RecordSpan("probe.selector_batch4", a, b);
  }

  // MACs of one forward, counted by a twin selector (Forward records them;
  // the shared selector is const).
  core::Selector twin(cfg);
  nn::Tensor mag({scratch.spec.num_frames(), scratch.spec.num_bins()});
  std::memcpy(mag.data(), scratch.spec.mag().data(),
              mag.numel() * sizeof(float));
  twin.Forward(mag, pipeline.dvector(), /*training=*/false);
  const double macs = static_cast<double>(twin.LastForwardMacs());

  // Wire codec over one chunk's traffic: the submit frame in, the shadow
  // frame out (a shard replies with one kShadowData per taken output, and
  // the router decodes and re-encodes both).
  net::Frame submit, reply;
  submit.type = net::FrameType::kSubmitChunk;
  submit.session_id = 1;
  net::PutFloats(&submit.payload, chunks.back().samples());
  reply.type = net::FrameType::kShadowData;
  reply.session_id = 1;
  net::PutFloats(&reply.payload, whole.samples());
  std::string wire;
  net::FrameDecoder decoder;
  std::vector<double> encode_ms, decode_ms;
  for (std::size_t r = 0; r <= reps; ++r) {
    wire.clear();
    const auto a = Clock::now();
    net::EncodeFrame(submit, &wire);
    net::EncodeFrame(reply, &wire);
    const auto b = Clock::now();
    decoder.Feed(reinterpret_cast<const std::uint8_t*>(wire.data()),
                 wire.size());
    net::Frame frame;
    std::size_t frames = 0;
    while (decoder.Next(&frame) == net::DecodeStatus::kOk) ++frames;
    const auto c = Clock::now();
    if (frames != 2) {
      *error = "codec probe decoded " + std::to_string(frames) + " frames";
      return false;
    }
    if (r == 0) continue;
    encode_ms.push_back(MsBetween(a, b));
    decode_ms.push_back(MsBetween(b, c));
    RecordSpan("probe.encode", a, b);
    RecordSpan("probe.decode", b, c);
  }

  const double gap = Median(gap_pct);
  const double selector_med = Median(selector_ms);
  auto& m = *layer;
  m["core.process_chunk_ms"] = {Median(whole_ms), "ms"};
  m["nn.selector_ms"] = {selector_med, "ms"};
  m["nn.selector_batch4_ms_per_item"] = {Median(batch_ms), "ms"};
  m["nn.selector_gmac_per_s"] = {macs / 1e9 / (selector_med / 1e3), "GMAC/s"};
  m["dsp.stft_ms"] = {Median(stft_ms), "ms"};
  m["dsp.istft_ms"] = {Median(istft_ms), "ms"};
  m["channel.modulate_ms"] = {Median(modulate_ms), "ms"};
  m["dsp.resample_ms"] = {Median(resample_ms), "ms"};
  m["core.ledger_gap_pct"] = {std::fabs(gap), "%"};
  m["encoder.enroll_ms"] = {Median(enroll_ms), "ms"};
  m["synth.enroll_refs_ms"] = {Median(synth_ms), "ms"};
  m["net.encode_ms_per_chunk"] = {Median(encode_ms), "ms"};
  m["net.decode_ms_per_chunk"] = {Median(decode_ms), "ms"};

  if (!exact) {
    *error = std::string("chained stages differ from ProcessChunkInto (") +
             ModelName(model) + ")";
    return false;
  }
  if (std::fabs(gap) > kMaxLedgerGapPct) {
    *error = "ledger gap " + FormatNumber(gap) + " % exceeds 5 % (" +
             ModelName(model) + ")";
    return false;
  }
  return true;
}

}  // namespace nec::bench
