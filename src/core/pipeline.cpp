#include "core/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/trace.h"

namespace nec::core {
namespace {

// A NaN/Inf anywhere in the selector output would propagate silently into
// the inverse STFT and modulation, broadcasting garbage instead of a
// shadow. Catch it at the selector boundary with a typed invariant so the
// serving layer (runtime session containment) can fault exactly the one
// session whose chunk poisoned the forward. O(cells) — negligible next to
// the DNN forward itself.
void CheckShadowFinite(const std::vector<float>& shadow_mag,
                       const char* site) {
  for (const float v : shadow_mag) {
    NEC_CHECK_MSG(std::isfinite(v),
                  site << " produced a non-finite shadow magnitude");
  }
}

}  // namespace

NecPipeline::NecPipeline(
    Selector selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    PipelineOptions options)
    : NecPipeline(std::make_shared<const Selector>(std::move(selector)),
                  std::move(encoder), options) {}

NecPipeline::NecPipeline(
    std::shared_ptr<const Selector> selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    PipelineOptions options)
    : selector_(std::move(selector)),
      las_selector_(selector_->config()),
      encoder_(std::move(encoder)),
      options_(options) {
  NEC_CHECK(selector_ != nullptr);
  NEC_CHECK(encoder_ != nullptr);
  NEC_CHECK_MSG(encoder_->dim() == selector_->config().embedding_dim,
                "encoder/selector embedding dimension mismatch");
}

void NecPipeline::Enroll(std::span<const audio::Waveform> references) {
  dvector_ = encoder_->EmbedReferences(references);
  las_selector_.Enroll(references);
}

const std::vector<float>& NecPipeline::dvector() const {
  NEC_CHECK_MSG(dvector_.has_value(), "pipeline not enrolled");
  return *dvector_;
}

void NecPipeline::GenerateShadowInto(const audio::Waveform& mixed,
                                     SelectorKind kind,
                                     ShadowScratch& scratch,
                                     audio::Waveform& out) const {
  if (kind == SelectorKind::kNeural) {
    const ShadowBatchRequest request{
        .pipeline = this, .mixed = &mixed, .scratch = &scratch, .out = &out};
    GenerateShadowBatchInto({&request, 1}, scratch.arena);
    return;
  }
  NEC_CHECK_MSG(dvector_.has_value(), "enroll a target before GenerateShadow");
  NEC_CHECK_MSG(mixed.sample_rate() == config().sample_rate,
                "monitor audio must be at " << config().sample_rate
                                            << " Hz");
  NEC_TRACE_SPAN("pipeline.generate_shadow");
  {
    NEC_TRACE_SPAN("dsp.stft");
    dsp::Stft(mixed, config().stft, scratch.stft, scratch.spec);
  }
  {
    NEC_TRACE_SPAN("selector.las");
    las_selector_.ComputeShadowInto(scratch.spec, scratch.shadow_mag);
  }
  CheckShadowFinite(scratch.shadow_mag, "GenerateShadow selector");
  NEC_TRACE_SPAN("dsp.istft");
  dsp::IstftWithPhaseInto(scratch.shadow_mag, scratch.spec, config().stft,
                          config().sample_rate, mixed.size(), scratch.stft,
                          out);
}

ChunkScratch& ChunkScratch::ThisThread() {
  thread_local ChunkScratch scratch;
  return scratch;
}

audio::Waveform NecPipeline::GenerateShadow(const audio::Waveform& mixed,
                                            SelectorKind kind) const {
  ShadowScratch scratch;
  audio::Waveform out;
  GenerateShadowInto(mixed, kind, scratch, out);
  return out;
}

void GenerateShadowBatchInto(std::span<const ShadowBatchRequest> requests,
                             Arena& arena) {
  const std::size_t B = requests.size();
  NEC_CHECK_MSG(B >= 1, "GenerateShadowBatchInto on an empty batch");
  const NecPipeline* first = requests[0].pipeline;
  NEC_CHECK(first != nullptr && requests[0].mixed != nullptr);
  const Selector& shared = first->selector();
  const NecConfig& config = first->config();
  const std::size_t chunk_len = requests[0].mixed->size();

  NEC_TRACE_SPAN_ARG("pipeline.generate_shadow", B);
  // Everything below that is not an item's own scratch — the selector's
  // tensors and the per-item pointer arrays — is rewound on return.
  ArenaScope arena_scope(arena);
  const auto** specs = arena.AllocateArray<const dsp::Spectrogram*>(B);
  const auto** dvectors = arena.AllocateArray<const std::vector<float>*>(B);
  auto** shadow_mags = arena.AllocateArray<std::vector<float>*>(B);
  for (std::size_t b = 0; b < B; ++b) {
    const ShadowBatchRequest& req = requests[b];
    NEC_CHECK_MSG(req.pipeline != nullptr && req.mixed != nullptr &&
                      req.scratch != nullptr && req.out != nullptr,
                  "GenerateShadowBatchInto: null item " << b);
    NEC_CHECK_MSG(&req.pipeline->selector() == &shared,
                  "GenerateShadowBatchInto items must share one selector");
    NEC_CHECK_MSG(req.pipeline->enrolled(),
                  "enroll a target before GenerateShadow");
    NEC_CHECK_MSG(req.mixed->size() == chunk_len,
                  "GenerateShadowBatchInto chunks must be same-length");
    NEC_CHECK_MSG(req.mixed->sample_rate() == config.sample_rate,
                  "monitor audio must be at " << config.sample_rate << " Hz");
    {
      NEC_TRACE_SPAN("dsp.stft");
      dsp::Stft(*req.mixed, config.stft, req.scratch->stft,
                req.scratch->spec);
    }
    specs[b] = &req.scratch->spec;
    dvectors[b] = &req.pipeline->dvector();
    shadow_mags[b] = &req.scratch->shadow_mag;
  }
  {
    NEC_TRACE_SPAN_ARG("selector.forward", B);
    shared.ComputeShadowBatchInto({specs, B}, {dvectors, B},
                                  {shadow_mags, B});
  }
  for (std::size_t b = 0; b < B; ++b) {
    CheckShadowFinite(*shadow_mags[b], "GenerateShadow selector");
  }
  for (const ShadowBatchRequest& req : requests) {
    NEC_TRACE_SPAN("dsp.istft");
    dsp::IstftWithPhaseInto(req.scratch->shadow_mag, req.scratch->spec,
                            config.stft, config.sample_rate, chunk_len,
                            req.scratch->stft, *req.out);
  }
}

audio::Waveform NecPipeline::OracleShadow(
    const audio::Waveform& mixed, const audio::Waveform& background) const {
  const dsp::Spectrogram mix_spec = dsp::Stft(mixed, config().stft);
  const dsp::Spectrogram bk_spec = dsp::Stft(background, config().stft);
  // Tolerate a trailing length mismatch (stems may carry propagation
  // delays); cells past the shorter signal keep a zero shadow.
  const std::size_t n =
      std::min(mix_spec.mag().size(), bk_spec.mag().size());
  std::vector<float> shadow(mix_spec.mag().size(), 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    shadow[i] = bk_spec.mag()[i] - mix_spec.mag()[i];
  }
  return dsp::IstftWithPhase(shadow, mix_spec, config().stft,
                             config().sample_rate, mixed.size());
}

}  // namespace nec::core
