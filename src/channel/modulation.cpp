#include "channel/modulation.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "dsp/biquad.h"
#include "dsp/polyphase.h"
#include "dsp/resample.h"

namespace nec::channel {

void ModulateAmInto(const audio::Waveform& baseband,
                    const ModulationConfig& config, dsp::ResamplerPlan& plan,
                    audio::Waveform& out) {
  NEC_CHECK_MSG(config.carrier_hz > 20000.0 &&
                    config.carrier_hz < 0.45 * config.air_sample_rate,
                "carrier " << config.carrier_hz
                           << " Hz outside the inaudible/supported band");
  NEC_CHECK_MSG(config.alpha > 0.0, "alpha must be positive");

  // The carrier is the same array for every chunk (the sample index
  // restarts at 0), so it is read from the process-wide table, bound into
  // the plan once per stream.
  if (!plan.carrier || plan.carrier->hz != config.carrier_hz ||
      plan.carrier->rate != config.air_sample_rate) {
    plan.carrier =
        dsp::GetCosineTable(config.carrier_hz, config.air_sample_rate);
  }
  const dsp::CosineTable& carrier = *plan.carrier;
  const double alpha = config.alpha;
  const double norm = config.peak / (1.0 + config.alpha);
  const auto emit = [&](float m, std::size_t i) {
    return static_cast<float>(
        (static_cast<double>(m) + alpha) * carrier.At(i) * norm);
  };

  if (config.reference_peak > 0.0) {
    // Fixed stream-wide gain: every chunk of a stream maps amplitude to
    // envelope identically, so the emitted power coefficient is stable.
    // Resampler overshoot (or chunks louder than the reference) clamps to
    // the |m| <= 1 modulation-index invariant instead of re-normalizing.
    // Resample, gain, clamp and carrier are one pass.
    const float scale = static_cast<float>(1.0 / config.reference_peak);
    dsp::ResampleMapInto(
        baseband, config.air_sample_rate, plan, out,
        [&](float s, std::size_t i) {
          return emit(std::clamp(s * scale, -1.0f, 1.0f), i);
        });
  } else {
    // Whole-utterance normalization needs the peak of the resampled
    // envelope first: resample, then scale to |m| <= 1 (x * 1.0f is exact
    // on silence) and apply the carrier in a second pass over the output.
    dsp::ResampleInto(baseband, config.air_sample_rate, plan, out);
    const float peak = out.Peak();
    const float scale = peak > 0.0f ? 1.0f / peak : 1.0f;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = emit(out[i] * scale, i);
    }
  }
}

audio::Waveform ModulateAm(const audio::Waveform& baseband,
                           const ModulationConfig& config) {
  dsp::ResamplerPlan plan;
  audio::Waveform out;
  ModulateAmInto(baseband, config, plan, out);
  return out;
}

audio::Waveform DemodulateAm(const audio::Waveform& passband,
                             double carrier_hz, int target_rate) {
  // Coherent demodulation shifts the upper sideband to carrier + bw where
  // bw = target_rate/2 is the recovered baseband's bandwidth. The whole
  // sideband — not just the carrier — must sit below Nyquist, or it folds
  // back into the audio band before the low-pass can reject it.
  NEC_CHECK_MSG(
      passband.sample_rate() > 2.0 * (carrier_hz + 0.5 * target_rate),
      "passband rate " << passband.sample_rate()
                       << " Hz cannot carry the upper sideband of a "
                       << carrier_hz << " Hz carrier with " << target_rate
                       << " Hz baseband");
  audio::Waveform mixed = passband;
  const double w =
      2.0 * std::numbers::pi * carrier_hz / passband.sample_rate();
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = static_cast<float>(
        2.0 * mixed[i] * std::cos(w * static_cast<double>(i)));
  }
  auto lp = dsp::DesignButterworthLowPass(
      8, 0.4 * target_rate, passband.sample_rate());
  lp.ProcessBuffer(mixed.samples());
  return dsp::Resample(mixed, target_rate);
}

}  // namespace nec::channel
