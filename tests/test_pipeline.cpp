// Tests for NecPipeline: enrollment, shadow generation, modulation glue.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "core/pipeline.h"
#include "metrics/metrics.h"
#include "synth/dataset.h"

namespace nec::core {
namespace {

NecConfig SmallConfig() {
  NecConfig cfg = NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : cfg_(SmallConfig()),
        encoder_(std::make_shared<encoder::LasEncoder>(cfg_.embedding_dim)),
        pipeline_(Selector(cfg_, 7), encoder_, {}),
        builder_({.duration_s = 1.5}),
        spks_(synth::DatasetBuilder::MakeSpeakers(2, 1234)) {}

  void Enroll() {
    const auto refs = builder_.MakeReferenceAudios(spks_[0], 3, 10);
    pipeline_.Enroll(refs);
  }

  NecConfig cfg_;
  std::shared_ptr<encoder::SpeakerEncoder> encoder_;
  NecPipeline pipeline_;
  synth::DatasetBuilder builder_;
  std::vector<synth::SpeakerProfile> spks_;
};

TEST_F(PipelineTest, RequiresEnrollmentBeforeUse) {
  EXPECT_FALSE(pipeline_.enrolled());
  const auto inst = builder_.MakeInstance(
      spks_[0], synth::Scenario::kJointConversation, 1, &spks_[1]);
  EXPECT_THROW(pipeline_.GenerateShadow(inst.mixed), nec::CheckError);
  EXPECT_THROW(pipeline_.dvector(), nec::CheckError);
}

TEST_F(PipelineTest, EnrollmentProducesUnitDvector) {
  Enroll();
  EXPECT_TRUE(pipeline_.enrolled());
  const auto& d = pipeline_.dvector();
  ASSERT_EQ(d.size(), cfg_.embedding_dim);
  double norm = 0.0;
  for (float v : d) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-4);
}

TEST_F(PipelineTest, ShadowHasInputLengthAndRate) {
  Enroll();
  const auto inst = builder_.MakeInstance(
      spks_[0], synth::Scenario::kJointConversation, 2, &spks_[1]);
  const audio::Waveform shadow = pipeline_.GenerateShadow(inst.mixed);
  EXPECT_EQ(shadow.size(), inst.mixed.size());
  EXPECT_EQ(shadow.sample_rate(), cfg_.sample_rate);
}

TEST_F(PipelineTest, RejectsWrongSampleRate) {
  Enroll();
  audio::Waveform wrong(8000, std::size_t{8000});
  EXPECT_THROW(pipeline_.GenerateShadow(wrong), nec::CheckError);
}

TEST_F(PipelineTest, LasMaskShadowReducesTargetResidual) {
  Enroll();
  const auto inst = builder_.MakeInstance(
      spks_[0], synth::Scenario::kJointConversation, 3, &spks_[1]);
  const audio::Waveform shadow =
      pipeline_.GenerateShadow(inst.mixed, SelectorKind::kLasMask);
  const audio::Waveform record = audio::Mix(inst.mixed, shadow);
  // Eq. 6's own yardstick: the recorded spectrogram must be closer to the
  // background spectrogram than the mixed one was.
  const dsp::Spectrogram s_rec = dsp::Stft(record, cfg_.stft);
  const dsp::Spectrogram s_mix = dsp::Stft(inst.mixed, cfg_.stft);
  const dsp::Spectrogram s_bk = dsp::Stft(inst.background, cfg_.stft);
  double err_rec = 0.0, err_mix = 0.0;
  for (std::size_t i = 0; i < s_bk.mag().size(); ++i) {
    const double dr = s_rec.mag()[i] - s_bk.mag()[i];
    const double dm = s_mix.mag()[i] - s_bk.mag()[i];
    err_rec += dr * dr;
    err_mix += dm * dm;
  }
  EXPECT_LT(err_rec, 0.8 * err_mix);
  // And the target itself must be harder to find in the record.
  EXPECT_LT(metrics::Sdr(inst.target.samples(), record.samples()),
            metrics::Sdr(inst.target.samples(), inst.mixed.samples()));
}

TEST_F(PipelineTest, OracleShadowNearlyCancelsTarget) {
  Enroll();
  const auto inst = builder_.MakeInstance(
      spks_[0], synth::Scenario::kJointConversation, 4, &spks_[1]);
  const audio::Waveform shadow =
      pipeline_.OracleShadow(inst.mixed, inst.background);
  const audio::Waveform record = audio::Mix(inst.mixed, shadow);
  const double sdr_target_mixed =
      metrics::Sdr(inst.target.samples(), inst.mixed.samples());
  const double sdr_target_record =
      metrics::Sdr(inst.target.samples(), record.samples());
  EXPECT_LT(sdr_target_record, sdr_target_mixed - 6.0);
}

TEST_F(PipelineTest, ModulatedShadowIsUltrasonic) {
  Enroll();
  const auto inst = builder_.MakeInstance(
      spks_[0], synth::Scenario::kJointConversation, 5, &spks_[1]);
  const audio::Waveform mod = channel::ModulateAm(
      pipeline_.GenerateShadow(inst.mixed, SelectorKind::kLasMask),
      pipeline_.options().modulation);
  EXPECT_EQ(mod.sample_rate(), channel::kAirSampleRate);
  EXPECT_GT(mod.size(), inst.mixed.size() * 10);  // 12x rate
  EXPECT_LE(mod.Peak(), 1.0f);
}

TEST_F(PipelineTest, EncoderSelectorDimMismatchRejected) {
  auto enc40 = std::make_shared<encoder::LasEncoder>(16);
  EXPECT_THROW(NecPipeline(Selector(cfg_, 3), enc40, {}), nec::CheckError);
}

TEST_F(PipelineTest, GenerateShadowBatchIntoMatchesPerItemBitExact) {
  // Sessions sharing one weight set (the runtime path) get coalesced into
  // one batched selector forward; each session's shadow must keep the exact
  // bits of its solo GenerateShadow.
  auto shared = std::make_shared<const Selector>(Selector(cfg_, 7));
  std::vector<std::unique_ptr<NecPipeline>> pipes;
  std::vector<audio::Waveform> chunks;
  for (std::size_t i = 0; i < 3; ++i) {
    pipes.push_back(std::make_unique<NecPipeline>(shared, encoder_));
    pipes.back()->Enroll(
        builder_.MakeReferenceAudios(spks_[i % 2], 3, 40 + i));
    chunks.push_back(builder_
                         .MakeInstance(spks_[i % 2],
                                       synth::Scenario::kJointConversation,
                                       50 + i, &spks_[(i + 1) % 2])
                         .mixed);
  }
  std::vector<ShadowScratch> scratch(3);
  std::vector<audio::Waveform> batched(3);
  std::vector<ShadowBatchRequest> reqs;
  for (std::size_t i = 0; i < 3; ++i) {
    reqs.push_back({.pipeline = pipes[i].get(),
                    .mixed = &chunks[i],
                    .scratch = &scratch[i],
                    .out = &batched[i]});
  }
  Arena arena;
  GenerateShadowBatchInto(reqs, arena);
  EXPECT_EQ(arena.InUse(), 0u);  // the batch rewinds its arena
  for (std::size_t i = 0; i < 3; ++i) {
    const audio::Waveform solo = pipes[i]->GenerateShadow(chunks[i]);
    ASSERT_EQ(batched[i].size(), solo.size());
    for (std::size_t j = 0; j < solo.size(); ++j) {
      ASSERT_EQ(batched[i].samples()[j], solo.samples()[j])
          << "item=" << i << " sample=" << j;
    }
  }
}

TEST_F(PipelineTest, GenerateShadowBatchIntoRejectsBadBatches) {
  auto shared = std::make_shared<const Selector>(Selector(cfg_, 7));
  NecPipeline a(shared, encoder_);
  NecPipeline other(Selector(cfg_, 8), encoder_);  // different weight set
  a.Enroll(builder_.MakeReferenceAudios(spks_[0], 3, 60));
  other.Enroll(builder_.MakeReferenceAudios(spks_[0], 3, 61));
  const auto inst = builder_.MakeInstance(
      spks_[0], synth::Scenario::kJointConversation, 62, &spks_[1]);
  const audio::Waveform& chunk = inst.mixed;
  const audio::Waveform shorter = chunk.Slice(0, chunk.size() / 2);

  ShadowScratch s0, s1;
  audio::Waveform o0, o1;
  Arena arena;
  EXPECT_THROW(GenerateShadowBatchInto({}, arena), nec::CheckError);
  {
    std::vector<ShadowBatchRequest> reqs{
        {.pipeline = &a, .mixed = &chunk, .scratch = &s0, .out = &o0},
        {.pipeline = &other, .mixed = &chunk, .scratch = &s1, .out = &o1}};
    EXPECT_THROW(GenerateShadowBatchInto(reqs, arena), nec::CheckError);
  }
  {
    std::vector<ShadowBatchRequest> reqs{
        {.pipeline = &a, .mixed = &chunk, .scratch = &s0, .out = &o0},
        {.pipeline = &a, .mixed = &shorter, .scratch = &s1, .out = &o1}};
    EXPECT_THROW(GenerateShadowBatchInto(reqs, arena), nec::CheckError);
  }
  {
    NecPipeline unenrolled(shared, encoder_);
    std::vector<ShadowBatchRequest> reqs{
        {.pipeline = &unenrolled, .mixed = &chunk, .scratch = &s0,
         .out = &o0}};
    EXPECT_THROW(GenerateShadowBatchInto(reqs, arena), nec::CheckError);
  }
  {
    std::vector<ShadowBatchRequest> reqs{
        {.pipeline = &a, .mixed = &chunk}};  // no scratch / output
    EXPECT_THROW(GenerateShadowBatchInto(reqs, arena), nec::CheckError);
  }
  EXPECT_EQ(arena.InUse(), 0u);  // a rejected batch rewinds its arena too
}

}  // namespace
}  // namespace nec::core
