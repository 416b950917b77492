#include "dsp/resample.h"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "dsp/fir.h"
#include "dsp/polyphase.h"

namespace nec::dsp {

CosineTable::CosineTable(double hz_in, int rate_in)
    : hz(hz_in), rate(rate_in), w(2.0 * std::numbers::pi * hz_in / rate_in) {
  NEC_CHECK_MSG(rate_in > 0, "carrier table rate must be positive");
  values.resize(static_cast<std::size_t>(rate_in));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::cos(w * static_cast<double>(i));
  }
}

std::shared_ptr<const CosineTable> GetCosineTable(double hz, int rate) {
  static std::mutex mu;
  static std::map<std::pair<double, int>, std::shared_ptr<const CosineTable>>
      cache;
  const std::pair key{hz, rate};
  {
    std::lock_guard lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Built outside the lock (one second of cos calls). Two threads may race
  // to build the same table; construction is deterministic, so either wins.
  auto table = std::make_shared<const CosineTable>(hz, rate);
  std::lock_guard lock(mu);
  return cache.try_emplace(key, std::move(table)).first->second;
}

void ResamplerPlan::Bind(int src, int target, std::size_t tpp) {
  if (src_rate == src && target_rate == target && taps_per_phase == tpp) {
    return;
  }
  const int g = std::gcd(src, target);
  up = static_cast<std::size_t>(target / g);
  down = static_cast<std::size_t>(src / g);

  // Anti-alias / anti-image low-pass at min(src, target)/2, designed at the
  // upsampled rate src*L. Cut slightly below Nyquist for transition band.
  const double fs_up = static_cast<double>(src) * up;
  const double cutoff = 0.45 * std::min(src, target);
  std::size_t num_taps = tpp * std::max(up, down);
  if (num_taps % 2 == 0) ++num_taps;
  taps = DesignFirLowPass(num_taps, cutoff, fs_up);

  // Polyphase decomposition: tap j belongs to phase j % L.
  phase_taps.clear();
  phase_begin.clear();
  for (std::size_t p = 0; p < up; ++p) {
    phase_begin.push_back(phase_taps.size());
    for (std::size_t j = p; j < taps.size(); j += up) {
      phase_taps.push_back(static_cast<double>(taps[j]));
    }
  }
  phase_begin.push_back(phase_taps.size());
  block_inputs.assign(phase_begin[1] - 1 + kPolyphaseLanes, 0.0);

  src_rate = src;
  target_rate = target;
  taps_per_phase = tpp;
}

void ResampleInto(const audio::Waveform& input, int target_rate,
                  ResamplerPlan& plan, audio::Waveform& out,
                  std::size_t taps_per_phase) {
  ResampleMapInto(
      input, target_rate, plan, out, [](float s, std::size_t) { return s; },
      taps_per_phase);
}

audio::Waveform Resample(const audio::Waveform& input, int target_rate,
                         std::size_t taps_per_phase) {
  ResamplerPlan plan;
  audio::Waveform out;
  ResampleInto(input, target_rate, plan, out, taps_per_phase);
  return out;
}

}  // namespace nec::dsp
