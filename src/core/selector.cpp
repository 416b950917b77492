#include "core/selector.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "nn/serialize.h"

namespace nec::core {
namespace {

constexpr std::size_t kDilations[] = {1, 2, 4, 8};

// The stage steps around the layers, shared by Forward (training) and the
// inference core so the two stay bit-identical by construction.

// The conv features see a square-root-compressed view of the magnitudes
// (standard for masking networks: compresses the dynamic range so formant
// structure is not drowned by the loudest cells); the output shadow stays
// linear, so the Eq. 5/6 superposition algebra is untouched.
void CompressMagnitudes(const float* mag, std::size_t n, float* x) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = mag[i];
    x[i] = v > 0.0f ? std::sqrt(v) : 0.0f;
  }
}

// (2, T, F) conv output -> (T, 2F + E): frame t = [ch0 row t, ch1 row t,
// d-vector].
void FuseFrames(const float* conv_out, const std::vector<float>& dvector,
                std::size_t T, std::size_t F, float* fused) {
  const std::size_t E = dvector.size();
  const float* ch0 = conv_out;
  const float* ch1 = conv_out + T * F;
  for (std::size_t t = 0; t < T; ++t) {
    float* row = fused + t * (2 * F + E);
    for (std::size_t f = 0; f < F; ++f) row[f] = ch0[t * F + f];
    for (std::size_t f = 0; f < F; ++f) row[F + f] = ch1[t * F + f];
    for (std::size_t e = 0; e < E; ++e) row[2 * F + e] = dvector[e];
  }
}

}  // namespace

Selector::Selector(const NecConfig& config, std::uint64_t init_seed)
    : config_(config) {
  Rng rng(init_seed ^ 0x8AD1F2C1B7E94E2DULL);
  const std::size_t C = config_.conv_channels;

  // Conv 1x7 (frequency), Conv 7x1 (time), 4 dilated 5x5, final 5x5 -> 2.
  convs_.push_back(std::make_unique<nn::Conv2D>(1, C, 1, 7, 1, 1, rng));
  convs_.push_back(std::make_unique<nn::Conv2D>(C, C, 7, 1, 1, 1, rng));
  for (std::size_t d : kDilations) {
    convs_.push_back(std::make_unique<nn::Conv2D>(C, C, 5, 5, d, 1, rng));
  }
  convs_.push_back(std::make_unique<nn::Conv2D>(C, 2, 5, 5, 1, 1, rng));
  conv_relus_.resize(convs_.size());

  const std::size_t F = config_.num_bins();
  fc1_ = std::make_unique<nn::Linear>(2 * F + config_.embedding_dim,
                                      config_.fc_hidden, rng);
  fc2_ = std::make_unique<nn::Linear>(config_.fc_hidden, F, rng);
  // Near-zero head init: the mask starts flat at 0.5 rather than random,
  // which keeps the first training steps close to a sane baseline.
  fc2_->weight().value.Scale(0.01f);
}

nn::Tensor Selector::Forward(const nn::Tensor& mixed_mag,
                             const std::vector<float>& dvector,
                             bool /*training*/) {
  NEC_CHECK_MSG(mixed_mag.rank() == 2 &&
                    mixed_mag.dim(1) == config_.num_bins(),
                "selector expects (T, F) input with F = "
                    << config_.num_bins());
  NEC_CHECK_MSG(dvector.size() == config_.embedding_dim,
                "d-vector dim " << dvector.size() << " != configured "
                                << config_.embedding_dim);
  const std::size_t T = mixed_mag.dim(0);
  const std::size_t F = config_.num_bins();
  cached_T_ = T;

  // (T, F) -> (1, T, F) for the conv stack.
  nn::Tensor x({1, T, F});
  CompressMagnitudes(mixed_mag.data(), x.numel(), x.data());
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    x = convs_[i]->Forward(x);
    // Final conv layer also passes through ReLU per the paper's uniform
    // activation choice; its output is re-signed by the FC head.
    x = conv_relus_[i].Forward(x);
  }

  NEC_CHECK(x.rank() == 3 && x.dim(0) == 2);
  nn::Tensor fused({T, 2 * F + config_.embedding_dim});
  FuseFrames(x.data(), dvector, T, F, fused.data());

  nn::Tensor h = fc_relu_.Forward(fc1_->Forward(fused));
  nn::Tensor logits = fc2_->Forward(h);  // (T, F)

  // Masked shadow head: shadow = -sigmoid(logits) * S_mixed. The selector
  // decides, per T-F cell, what fraction of the mixed energy belongs to
  // the target; the superposed record S_mixed + shadow = (1-mask)*S_mixed
  // stays a valid non-negative spectrogram. (The raw-regression head the
  // paper's text suggests trains far less stably — see DESIGN.md §5.)
  nn::Tensor mask = mask_sigmoid_.Forward(logits);
  mask_input_cache_ = mixed_mag;
  nn::Tensor shadow({T, F});
  for (std::size_t i = 0; i < shadow.numel(); ++i) {
    shadow[i] = -mask[i] * mixed_mag[i];
  }
  return shadow;
}

void Selector::ComputeShadowBatchInto(
    std::span<const dsp::Spectrogram* const> specs,
    std::span<const std::vector<float>* const> dvectors,
    std::span<std::vector<float>* const> outs) const {
  const std::size_t B = specs.size();
  NEC_CHECK_MSG(B >= 1, "selector batch is empty");
  NEC_CHECK_MSG(dvectors.size() == B && outs.size() == B,
                "selector batch: " << B << " spectrograms vs "
                                   << dvectors.size() << " d-vectors and "
                                   << outs.size() << " outputs");
  const std::size_t F = config_.num_bins();
  const std::size_t E = config_.embedding_dim;
  NEC_CHECK_MSG(specs[0] != nullptr, "selector batch: null item 0");
  const std::size_t T = specs[0]->num_frames();
  for (std::size_t b = 0; b < B; ++b) {
    NEC_CHECK_MSG(specs[b] != nullptr && dvectors[b] != nullptr &&
                      outs[b] != nullptr,
                  "selector batch: null item " << b);
    NEC_CHECK_MSG(specs[b]->num_bins() == F,
                  "selector expects F = " << F << " bins; item " << b
                                          << " has " << specs[b]->num_bins());
    NEC_CHECK_MSG(specs[b]->num_frames() == T,
                  "selector batch items must share (T, F); item "
                      << b << " differs");
    NEC_CHECK_MSG(dvectors[b]->size() == E,
                  "d-vector dim " << dvectors[b]->size() << " != configured "
                                  << E);
  }

  // Per-item gain normalization, applied before stacking so batching
  // cannot couple items through the gain.
  nn::Tensor gains({B});
  nn::Tensor scaled({B, T, F});
  for (std::size_t b = 0; b < B; ++b) {
    const std::vector<float>& mag = specs[b]->mag();
    double acc = 0.0;
    for (float m : mag) acc += static_cast<double>(m) * m;
    const float rms = static_cast<float>(
        std::sqrt(acc / std::max<std::size_t>(1, mag.size())));
    gains[b] = rms > 1e-9f ? 1.0f / rms : 1.0f;
    float* dst = scaled.data() + b * T * F;
    for (std::size_t i = 0; i < T * F; ++i) dst[i] = mag[i] * gains[b];
  }

  // The conv stack runs one item at a time (Conv2D batches by looping its
  // items anyway), ping-ponging two activation buffers with the ReLUs in
  // place, so an item's stack holds two activations at a time instead of
  // one per layer. Under an arena, each item's buffers are rewound before
  // the next item starts; only the fused FC input is batch-sized.
  nn::Tensor fused({B, T, 2 * F + E});
  for (std::size_t b = 0; b < B; ++b) {
    std::optional<ArenaScope> item_scope;
    if (Arena* arena = ArenaScope::Current()) item_scope.emplace(*arena);
    nn::Tensor x({1, 1, T, F});
    nn::Tensor y;
    CompressMagnitudes(scaled.data() + b * T * F, T * F, x.data());
    for (std::size_t i = 0; i < convs_.size(); ++i) {
      convs_[i]->InferBatchInto(x, y);
      conv_relus_[i].InferBatchInto(y, y);
      std::swap(x, y);
    }
    NEC_CHECK(x.rank() == 4 && x.dim(1) == 2);
    FuseFrames(x.data(), *dvectors[b], T, F,
               fused.data() + b * T * (2 * F + E));
  }

  // The FC head runs as one GEMM over all B*T rows (row-independent, so
  // bit-identical per item).
  nn::Tensor h, mask;
  fc1_->InferBatchInto(fused, h);
  fc_relu_.InferBatchInto(h, h);
  fc2_->InferBatchInto(h, mask);
  mask_sigmoid_.InferBatchInto(mask, mask);

  // Masked shadow head (see Forward), un-normalized per item.
  for (std::size_t b = 0; b < B; ++b) {
    const float* m = mask.data() + b * T * F;
    const float* in = scaled.data() + b * T * F;
    std::vector<float>& out = *outs[b];
    out.resize(T * F);
    for (std::size_t i = 0; i < T * F; ++i) {
      const float shadow = -m[i] * in[i];
      out[i] = shadow / gains[b];
    }
  }
}

void Selector::Backward(const nn::Tensor& grad_shadow) {
  const std::size_t T = cached_T_;
  const std::size_t F = config_.num_bins();
  NEC_CHECK_MSG(T > 0, "Backward before Forward");
  NEC_CHECK(grad_shadow.rank() == 2 && grad_shadow.dim(0) == T &&
            grad_shadow.dim(1) == F);

  // Through the masked head: dL/dMask = dL/dShadow * (-S_mixed).
  nn::Tensor grad_mask = grad_shadow;
  for (std::size_t i = 0; i < grad_mask.numel(); ++i) {
    grad_mask[i] *= -mask_input_cache_[i];
  }
  nn::Tensor grad_logits = mask_sigmoid_.Backward(grad_mask);

  nn::Tensor g = fc1_->Backward(fc_relu_.Backward(fc2_->Backward(grad_logits)));

  // Split (T, 2F + E) gradient back to the conv output (2, T, F); the
  // d-vector slice is a constant input, its gradient is dropped.
  nn::Tensor gx({2, T, F});
  for (std::size_t t = 0; t < T; ++t) {
    const float* row = g.data() + t * (2 * F + config_.embedding_dim);
    for (std::size_t f = 0; f < F; ++f) gx.At3(0, t, f) = row[f];
    for (std::size_t f = 0; f < F; ++f) gx.At3(1, t, f) = row[F + f];
  }

  for (std::size_t i = convs_.size(); i-- > 0;) {
    gx = convs_[i]->Backward(conv_relus_[i].Backward(gx));
  }
}

std::vector<nn::Param*> Selector::Params() {
  std::vector<nn::Param*> params;
  for (auto& conv : convs_) {
    for (nn::Param* p : conv->Params()) params.push_back(p);
  }
  for (nn::Param* p : fc1_->Params()) params.push_back(p);
  for (nn::Param* p : fc2_->Params()) params.push_back(p);
  return params;
}

void Selector::ComputeShadowInto(const dsp::Spectrogram& spec,
                                 const std::vector<float>& dvector,
                                 std::vector<float>& out) const {
  const dsp::Spectrogram* const spec_ptr = &spec;
  const std::vector<float>* const dvector_ptr = &dvector;
  std::vector<float>* const out_ptr = &out;
  ComputeShadowBatchInto({&spec_ptr, 1}, {&dvector_ptr, 1}, {&out_ptr, 1});
}

std::vector<std::vector<float>> Selector::ComputeShadowBatch(
    const std::vector<const dsp::Spectrogram*>& specs,
    const std::vector<const std::vector<float>*>& dvectors) const {
  std::vector<std::vector<float>> out(specs.size());
  std::vector<std::vector<float>*> out_ptrs(out.size());
  for (std::size_t b = 0; b < out.size(); ++b) out_ptrs[b] = &out[b];
  ComputeShadowBatchInto(specs, dvectors, out_ptrs);
  return out;
}

std::size_t Selector::LastForwardMacs() const {
  std::size_t macs = 0;
  for (const auto& conv : convs_) macs += conv->LastForwardMacs();
  macs += fc1_->LastForwardMacs() + fc2_->LastForwardMacs();
  return macs;
}

void Selector::Save(const std::string& path) const {
  nn::TensorMap map;
  // Persist the config alongside the weights.
  nn::Tensor meta({8});
  meta[0] = static_cast<float>(config_.sample_rate);
  meta[1] = static_cast<float>(config_.stft.fft_size);
  meta[2] = static_cast<float>(config_.stft.win_length);
  meta[3] = static_cast<float>(config_.stft.hop_length);
  meta[4] = static_cast<float>(config_.conv_channels);
  meta[5] = static_cast<float>(config_.fc_hidden);
  meta[6] = static_cast<float>(config_.embedding_dim);
  meta[7] = 1.0f;  // format version
  map.emplace("meta", std::move(meta));

  for (std::size_t i = 0; i < convs_.size(); ++i) {
    map.emplace("conv" + std::to_string(i) + ".w", convs_[i]->weight().value);
    map.emplace("conv" + std::to_string(i) + ".b", convs_[i]->bias().value);
  }
  map.emplace("fc1.w", fc1_->weight().value);
  map.emplace("fc1.b", fc1_->bias().value);
  map.emplace("fc2.w", fc2_->weight().value);
  map.emplace("fc2.b", fc2_->bias().value);
  nn::SaveTensors(path, map);
}

Selector Selector::Load(const std::string& path) {
  const nn::TensorMap map = nn::LoadTensors(path);
  const nn::Tensor& meta = map.at("meta");
  NecConfig cfg;
  cfg.sample_rate = static_cast<int>(meta[0]);
  cfg.stft.fft_size = static_cast<std::size_t>(meta[1]);
  cfg.stft.win_length = static_cast<std::size_t>(meta[2]);
  cfg.stft.hop_length = static_cast<std::size_t>(meta[3]);
  cfg.conv_channels = static_cast<std::size_t>(meta[4]);
  cfg.fc_hidden = static_cast<std::size_t>(meta[5]);
  cfg.embedding_dim = static_cast<std::size_t>(meta[6]);

  Selector s(cfg);
  for (std::size_t i = 0; i < s.convs_.size(); ++i) {
    s.convs_[i]->weight().value = map.at("conv" + std::to_string(i) + ".w");
    s.convs_[i]->bias().value = map.at("conv" + std::to_string(i) + ".b");
  }
  s.fc1_->weight().value = map.at("fc1.w");
  s.fc1_->bias().value = map.at("fc1.b");
  s.fc2_->weight().value = map.at("fc2.w");
  s.fc2_->bias().value = map.at("fc2.b");
  return s;
}

// Compile-time trail for the concurrency contract: everything a runtime
// session calls per chunk on the *shared* model must be const-invocable.
// If a future change drops const from one of these, sharing a Selector
// across sessions silently becomes a data race — fail the build instead.
static_assert(
    requires(const Selector& s, const dsp::Spectrogram& spec,
             const std::vector<float>& d,
             const std::vector<const dsp::Spectrogram*>& specs,
             const std::vector<const std::vector<float>*>& ds,
             std::vector<float>& shadow_out) {
      s.ComputeShadowInto(spec, d, shadow_out);
      s.ComputeShadowBatch(specs, ds);
      s.config();
    },
    "Selector inference entry points must stay const for nec::runtime "
    "weight sharing");

}  // namespace nec::core
