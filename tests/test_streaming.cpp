// Tests for the real-time chunked processor.
#include <gtest/gtest.h>

#include <memory>

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

TEST_F(StreamingTest, TimingsAccumulate) {
  StreamingProcessor proc(pipeline_, 0.5, SelectorKind::kLasMask);
  const auto utt = builder_.MakeUtterance(spk_, 6);
  proc.Push(utt.wave.samples());
  const ModuleTimings& t = proc.timings();
  EXPECT_GE(t.chunks, 4u);
  EXPECT_GT(t.selector_ms, 0.0);
  EXPECT_GT(t.broadcast_ms, 0.0);
  EXPECT_GT(t.avg_selector_ms(), 0.0);
  EXPECT_NEAR(t.total_ms(), t.selector_ms + t.broadcast_ms, 1e-9);
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
  proc.Push(utt.wave.samples());
  ASSERT_GE(proc.timings().chunks, 1u);
  EXPECT_LT(proc.timings().total_ms() / proc.timings().chunks, kBudgetMs);
}

TEST_F(StreamingTest, SmallPushesBufferUntilChunk) {
  StreamingProcessor proc(pipeline_, 0.5, SelectorKind::kLasMask);
  std::vector<float> tiny(100, 0.01f);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(proc.Push(tiny).has_value());
  }
  EXPECT_EQ(proc.timings().chunks, 0u);
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
  const std::size_t chunk = piecewise.chunk_samples();
  for (std::size_t pos = 0; pos < utt.wave.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, utt.wave.size() - pos);
    if (auto o = piecewise.Push(utt.wave.samples().subspan(pos, n))) {
      piece_out.Append(*o);
    }
  }

  ASSERT_EQ(bulk.timings().chunks, piecewise.timings().chunks);
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
  EXPECT_EQ(proc.timings().chunks, 2u);
  // 123 samples short of a chunk: exactly chunk - 123 more completes it.
  EXPECT_FALSE(
      proc.Push(utt.wave.samples().subspan(fed, chunk - 124)).has_value());
  EXPECT_TRUE(
      proc.Push(utt.wave.samples().subspan(fed + chunk - 124, 1))
          .has_value());
  EXPECT_EQ(proc.timings().chunks, 3u);
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
    for (std::size_t k = 0; (k + 1) * n <= utt.wave.size(); ++k) {
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
    EXPECT_GE(proc.timings().chunks, 2u);
  }
}

TEST(ModuleTimings, ZeroChunkAveragesAreGuarded) {
  // Division guard: a processor that never emitted a chunk must report
  // zero averages, not NaN/inf.
  const ModuleTimings t;
  EXPECT_EQ(t.chunks, 0u);
  EXPECT_EQ(t.avg_selector_ms(), 0.0);
  EXPECT_EQ(t.avg_broadcast_ms(), 0.0);
  EXPECT_EQ(t.total_ms(), 0.0);
}

TEST(ModuleTimings, AveragesDivideByChunkCount) {
  ModuleTimings t;
  t.selector_ms = 30.0;
  t.broadcast_ms = 10.0;
  t.chunks = 4;
  EXPECT_DOUBLE_EQ(t.avg_selector_ms(), 7.5);
  EXPECT_DOUBLE_EQ(t.avg_broadcast_ms(), 2.5);
  EXPECT_DOUBLE_EQ(t.total_ms(), 40.0);
}

}  // namespace
}  // namespace nec::core
