// Models, workload table, seeded inputs and chunk digests.
#include <bit>

#include "common.h"
#include "synth/dataset.h"
#include "synth/speaker.h"

namespace nec::bench {
namespace {

/// Babble streams shared by all sessions, and their length in chunks.
constexpr std::size_t kStreams = 8;
constexpr std::size_t kStreamChunks = 16;
/// -40 dBFS RMS uniform noise: amplitude a has RMS a / sqrt(3).
constexpr float kNoiseAmplitude = 0.01f * 1.7320508f;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

core::NecConfig ModelConfig(Model model) {
  core::NecConfig cfg = core::NecConfig::Fast();
  if (model == Model::kTiny) {
    // Must stay identical to necd's TinyModel(): the wire workloads verify
    // shard output against a reference built from this configuration.
    cfg.conv_channels = 6;
    cfg.fc_hidden = 32;
  }
  return cfg;
}

}  // namespace

const char* ModelName(Model model) {
  return model == Model::kFast ? "fast" : "tiny";
}

std::shared_ptr<const core::Selector> MakeSelector(Model model) {
  return std::make_shared<const core::Selector>(
      ModelConfig(model), model == Model::kFast ? 29 : 7);
}

std::shared_ptr<const encoder::SpeakerEncoder> MakeEncoder(Model model) {
  return std::make_shared<const encoder::LasEncoder>(
      ModelConfig(model).embedding_dim);
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         bool smoke) {
  WorkloadSpec w;
  w.name = name;
  if (name == "replay") {
    w.model = Model::kFast;
    w.max_batch = 4;
    w.sessions = smoke ? 16 : 64;
    w.closed_loop = true;
  } else if (name == "rooms") {
    w.model = Model::kFast;
    w.sessions = smoke ? 8 : 32;
    w.piece_samples = 4096;
  } else if (name == "fleet") {
    w.wire = true;
    w.model = Model::kTiny;
    w.sessions = smoke ? 8 : 32;
  } else if (name == "churn") {
    w.wire = true;
    w.model = Model::kTiny;
    w.sessions = smoke ? 4 : 16;
    w.opens_per_s = 4.0;
    w.short_chunks = 3;
  } else {
    return std::nullopt;
  }
  return w;
}

Inputs::Inputs(std::uint64_t seed, std::size_t num_sessions) {
  const std::uint64_t base = SplitMix(seed ^ 0x4E45432D42454E43ull);
  synth::DatasetBuilder builder(
      {.duration_s = static_cast<double>(kStreamChunks),
       .words_per_utterance = 2 * kStreamChunks});
  streams_.reserve(kStreams);
  for (std::size_t j = 0; j < kStreams; ++j) {
    const auto speaker = synth::SpeakerProfile::FromSeed(SplitMix(base + j));
    std::vector<float> samples =
        builder
            .MakeInstance(speaker, synth::Scenario::kBabble,
                          SplitMix(base + 100 + j))
            .mixed.data();
    samples.resize(kStreamChunks * kChunkSamples, 0.0f);
    streams_.push_back(std::move(samples));
  }
  sessions_.resize(num_sessions);
  for (std::size_t i = 0; i < num_sessions; ++i) {
    SessionSeeds& s = sessions_[i];
    s.stream = i % kStreams;
    s.rotation = SplitMix(base + 1000 + i) % kStreamChunks;
    s.noise_seed = SplitMix(base + 2000 + i);
    // Distinct per session and never reused: a shard enrolling the same
    // seeds twice would be a content cache waiting to happen.
    s.speaker_seed = base + 3000 + i;
    s.ref_seed = base + 3000 + num_sessions + i;
  }
}

void Inputs::FillChunk(std::size_t s, std::size_t k, float* out) const {
  const SessionSeeds& seeds = sessions_.at(s);
  const float* src = streams_[seeds.stream].data() +
                     ((k + seeds.rotation) % kStreamChunks) * kChunkSamples;
  std::uint64_t state = SplitMix(seeds.noise_seed + k);
  for (std::size_t j = 0; j < kChunkSamples; ++j) {
    // xorshift64*: a cheap stream of uniform 24-bit values.
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t r = state * 0x2545F4914F6CDD1Dull;
    const float u = static_cast<float>(r >> 40) * (1.0f / 16777216.0f);
    out[j] = src[j] + kNoiseAmplitude * (2.0f * u - 1.0f);
  }
}

std::vector<audio::Waveform> Inputs::References(std::size_t s) const {
  const SessionSeeds& seeds = sessions_.at(s);
  synth::DatasetBuilder builder({.duration_s = 3.0});
  return builder.MakeReferenceAudios(
      synth::SpeakerProfile::FromSeed(seeds.speaker_seed), 3, seeds.ref_seed);
}

ChunkDigest DigestChunk(std::span<const float> samples) {
  // Four independent lanes keep the multiply chains short; each step
  // (xor, odd multiply, xorshift) is invertible in both the lane state and
  // the input word, and the lanes fold together the same way.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  std::size_t nonfinite = 0;
  const std::size_t n = samples.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(samples[i + l]);
      nonfinite += (bits & 0x7F800000u) == 0x7F800000u;
      std::uint64_t h = (lane[l] ^ bits) * kMul;
      lane[l] = h ^ (h >> 29);
    }
  }
  for (; i < n; ++i) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(samples[i]);
    nonfinite += (bits & 0x7F800000u) == 0x7F800000u;
    std::uint64_t h = (lane[0] ^ bits) * kMul;
    lane[0] = h ^ (h >> 29);
  }
  std::uint64_t h = n;
  for (const std::uint64_t l : lane) {
    h = (h ^ l) * kMul;
    h ^= h >> 29;
  }
  return {h, nonfinite == 0};
}

}  // namespace nec::bench
