// Tests for the real-time chunked processor.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>

#include "channel/modulation.h"
#include "common/check.h"
#include "core/streaming.h"
#include "synth/dataset.h"

namespace nec::core {
namespace {

NecConfig SmallConfig() {
  NecConfig cfg = NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

/// Chunks in one Push/Flush result: each emitted chunk is chunk_samples()
/// input samples modulated up to the air rate, concatenated in order.
std::size_t ChunksIn(const std::optional<audio::Waveform>& out,
                     const StreamingProcessor& proc) {
  if (!out.has_value()) return 0;
  const std::size_t per_chunk =
      proc.chunk_samples() *
      static_cast<std::size_t>(channel::kAirSampleRate /
                               proc.pipeline().config().sample_rate);
  EXPECT_EQ(out->size() % per_chunk, 0u) << "ragged chunk output";
  return out->size() / per_chunk;
}

class StreamingTest : public ::testing::Test {
 protected:
  StreamingTest()
      : cfg_(SmallConfig()),
        pipeline_(Selector(cfg_, 7),
                  std::make_shared<encoder::LasEncoder>(cfg_.embedding_dim),
                  {}),
        builder_({.duration_s = 2.5}),
        spk_(synth::SpeakerProfile::FromSeed(33)),
        refs_(builder_.MakeReferenceAudios(spk_, 3, 40)) {
    pipeline_.Enroll(refs_);
  }

  NecConfig cfg_;
  NecPipeline pipeline_;
  synth::DatasetBuilder builder_;
  synth::SpeakerProfile spk_;
  std::vector<audio::Waveform> refs_;
};

TEST_F(StreamingTest, EmitsChunkPerFullSecond) {
  StreamingProcessor proc(pipeline_, 1.0, SelectorKind::kLasMask);
  const auto utt = builder_.MakeUtterance(spk_, 5);  // 2.5 s

  int chunks = 0;
  // Feed in uneven pieces (simulates a real capture callback).
  std::size_t pos = 0;
  const std::size_t piece = 3700;
  while (pos < utt.wave.size()) {
    const std::size_t n = std::min(piece, utt.wave.size() - pos);
    auto out = proc.Push(utt.wave.samples().subspan(pos, n));
    if (out.has_value()) {
      ++chunks;
      EXPECT_EQ(out->sample_rate(), channel::kAirSampleRate);
    }
    pos += n;
  }
  EXPECT_EQ(chunks, 2);  // 2 full seconds out of 2.5

  const auto tail = proc.Flush();
  EXPECT_TRUE(tail.has_value());
  EXPECT_FALSE(proc.Flush().has_value());  // nothing left
}

TEST_F(StreamingTest, LatencySanity) {
  // §IV-C2 requires <300 ms per 1 s chunk; the authoritative measurement
  // is bench_table2_runtime on an idle core. Under ctest the machine may
  // be loaded, so this test only guards against order-of-magnitude
  // regressions (a chunk must never take longer than the audio it covers).
  // Sanitizer instrumentation slows arithmetic ~2-10x, so widen the bound
  // there; tools/check.sh runs this suite under TSan.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr double kBudgetMs = 10000.0;
#else
  constexpr double kBudgetMs = 1000.0;
#endif
  StreamingProcessor proc(pipeline_, 1.0, SelectorKind::kNeural);
  const auto utt = builder_.MakeUtterance(spk_, 7);
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = proc.Push(utt.wave.samples());
  const double push_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const std::size_t chunks = ChunksIn(out, proc);
  ASSERT_GE(chunks, 1u);
  EXPECT_LT(push_ms / static_cast<double>(chunks), kBudgetMs);
}

TEST_F(StreamingTest, SmallPushesBufferUntilChunk) {
  StreamingProcessor proc(pipeline_, 0.5, SelectorKind::kLasMask);
  std::vector<float> tiny(100, 0.01f);
  std::size_t chunks = 0;
  for (int i = 0; i < 10; ++i) {
    const auto out = proc.Push(tiny);
    EXPECT_FALSE(out.has_value());
    chunks += ChunksIn(out, proc);
  }
  EXPECT_EQ(chunks, 0u);
  // The 1000 buffered samples were kept: they flush as one padded chunk.
  EXPECT_EQ(ChunksIn(proc.Flush(), proc), 1u);
}

TEST_F(StreamingTest, RejectsChunkShorterThanWindow) {
  EXPECT_THROW(StreamingProcessor(pipeline_, 0.001), nec::CheckError);
}

TEST_F(StreamingTest, FlushZeroPadsPartialChunk) {
  // A 0.6 s residue in a 1 s-chunk processor must flush as one chunk that
  // is bit-identical to pushing the same samples explicitly zero-padded to
  // a full chunk.
  StreamingProcessor proc(pipeline_, 1.0, SelectorKind::kLasMask);
  const auto utt = builder_.MakeUtterance(spk_, 9);
  const std::size_t partial =
      static_cast<std::size_t>(0.6 * cfg_.sample_rate);
  ASSERT_FALSE(proc.Push(utt.wave.samples().subspan(0, partial)).has_value());

  const auto tail = proc.Flush();
  ASSERT_TRUE(tail.has_value());

  audio::Waveform padded = utt.wave.Slice(0, partial);
  padded.ResizeTo(proc.chunk_samples());  // explicit zero-pad
  StreamingProcessor ref(pipeline_, 1.0, SelectorKind::kLasMask);
  const auto expected = ref.Push(padded.samples());
  ASSERT_TRUE(expected.has_value());

  ASSERT_EQ(tail->size(), expected->size());
  for (std::size_t i = 0; i < tail->size(); ++i) {
    ASSERT_EQ((*tail)[i], (*expected)[i]) << "sample " << i;
  }
}

TEST_F(StreamingTest, MultiChunkPushMatchesSingleChunkPushes) {
  // One Push carrying several chunks must drain to EXACTLY the samples of
  // the same stream fed one chunk at a time — guards the read-offset
  // drain rewrite (the old loop rebuilt the remainder buffer per chunk,
  // which was also quadratic in buffered chunks).
  StreamingProcessor bulk(pipeline_, 0.5, SelectorKind::kLasMask);
  StreamingProcessor piecewise(pipeline_, 0.5, SelectorKind::kLasMask);
  const auto utt = builder_.MakeUtterance(spk_, 5);  // 2.5 s = 5 chunks

  auto bulk_out = bulk.Push(utt.wave.samples());
  ASSERT_TRUE(bulk_out.has_value());

  audio::Waveform piece_out;
  std::size_t piece_chunks = 0;
  const std::size_t chunk = piecewise.chunk_samples();
  for (std::size_t pos = 0; pos < utt.wave.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, utt.wave.size() - pos);
    const auto o = piecewise.Push(utt.wave.samples().subspan(pos, n));
    piece_chunks += ChunksIn(o, piecewise);
    if (o) piece_out.Append(*o);
  }

  ASSERT_EQ(ChunksIn(bulk_out, bulk), 5u);
  ASSERT_EQ(piece_chunks, 5u);
  ASSERT_EQ(bulk_out->size(), piece_out.size());
  for (std::size_t i = 0; i < piece_out.size(); ++i) {
    ASSERT_EQ((*bulk_out)[i], piece_out[i]) << "sample " << i;
  }
}

TEST_F(StreamingTest, LeftoverSamplesSurviveTheDrain) {
  // A push of 2 chunks + a ragged tail must keep exactly the tail
  // buffered: the follow-up push that completes it emits one more chunk.
  StreamingProcessor proc(pipeline_, 0.5, SelectorKind::kLasMask);
  const auto utt = builder_.MakeUtterance(spk_, 5);
  const std::size_t chunk = proc.chunk_samples();
  const std::size_t fed = 2 * chunk + 123;
  auto out = proc.Push(utt.wave.samples().subspan(0, fed));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(ChunksIn(out, proc), 2u);
  // 123 samples short of a chunk: exactly chunk - 123 more completes it.
  EXPECT_FALSE(
      proc.Push(utt.wave.samples().subspan(fed, chunk - 124)).has_value());
  EXPECT_EQ(
      ChunksIn(proc.Push(utt.wave.samples().subspan(fed + chunk - 124, 1)),
               proc),
      1u);
}

TEST_F(StreamingTest, LatchedGainMatchesExplicitReferencePeak) {
  // The processor latches its stream-wide modulation reference from the
  // first non-silent shadow chunk; a processor configured with that same
  // value explicitly must produce bit-identical output.
  const auto utt = builder_.MakeUtterance(spk_, 7);
  const std::size_t chunk_samples =
      static_cast<std::size_t>(1.0 * cfg_.sample_rate);
  const float ref =
      pipeline_
          .GenerateShadow(utt.wave.Slice(0, chunk_samples),
                          SelectorKind::kLasMask)
          .Peak();
  ASSERT_GT(ref, 0.0f);

  PipelineOptions opts;
  opts.modulation.reference_peak = ref;
  NecPipeline explicit_pipeline(pipeline_.shared_selector(),
                                pipeline_.shared_encoder(), opts);
  explicit_pipeline.Enroll(refs_);

  StreamingProcessor latched(pipeline_, 1.0, SelectorKind::kLasMask);
  StreamingProcessor configured(explicit_pipeline, 1.0,
                                SelectorKind::kLasMask);
  const auto a = latched.Push(utt.wave.samples());
  const auto b = configured.Push(utt.wave.samples());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ((*a)[i], (*b)[i]) << "sample " << i;
  }
}

TEST_F(StreamingTest, GenerateShadowMatchesProcessChunkInto) {
  // The offline value wrapper and the per-chunk serving path run one
  // shadow path: GenerateShadow + AM modulation at the stream's latched
  // reference must reproduce ProcessChunkInto bit for bit, chunk by chunk.
  const auto utt = builder_.MakeUtterance(spk_, 9);
  for (const SelectorKind kind :
       {SelectorKind::kNeural, SelectorKind::kLasMask}) {
    StreamingProcessor proc(pipeline_, 1.0, kind);
    const std::size_t n = proc.chunk_samples();
    channel::ModulationConfig mod = pipeline_.options().modulation;
    audio::Waveform out;
    std::size_t k = 0;
    for (; (k + 1) * n <= utt.wave.size(); ++k) {
      const audio::Waveform chunk = utt.wave.Slice(k * n, n);
      const audio::Waveform shadow = pipeline_.GenerateShadow(chunk, kind);
      if (mod.reference_peak <= 0.0 && shadow.Peak() > 0.0f) {
        mod.reference_peak = shadow.Peak();
      }
      const audio::Waveform expected = channel::ModulateAm(shadow, mod);
      proc.ProcessChunkInto(chunk, out);
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i]) << "chunk " << k << " sample " << i;
      }
    }
    EXPECT_GE(k, 2u);
  }
}

}  // namespace
}  // namespace nec::core
