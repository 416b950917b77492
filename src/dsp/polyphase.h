// The polyphase resampling kernel, with a per-sample epilogue.
//
// Output n of an L/M conversion sits at upsampled index u = n*M + delay
// (delay = the FIR's group delay, taps/2). Its phase p = u % L selects the
// taps p, p+L, p+2L, ... (ResamplerPlan::phase_taps), applied to the inputs
// k0, k0-1, k0-2, ... with k0 = u / L; inputs outside [0, size) add nothing.
//
// Bit-exactness rule: each output is one double accumulator that starts at
// 0.0 and adds tap[t] * x[k0 - t] for t ascending over the in-range taps,
// then rounds as gain * float(acc). That is the summation of a plain
// tap-by-tap walk, so every ratio returns the same bits as one. Lane
// blocking changes which outputs are computed side by side, never the order
// of the additions within one output.
//
// The epilogue maps (resampled sample, output index) to the stored sample,
// so a caller fuses its per-sample work (gain, clamp, carrier) into the same
// pass. It may be called in any output order.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>

#include "common/check.h"
#include "dsp/resample.h"

namespace nec::dsp {

/// Outputs accumulated side by side in the down == 1 interior.
inline constexpr std::size_t kPolyphaseLanes = 16;

/// Four doubles: each lane's multiply-add is the scalar one, so lanes round
/// like scalar outputs.
using Lane4d = double __attribute__((vector_size(32)));

/// Writes out[n] = epilogue(gain * float(acc_n), n) for every output of the
/// conversion bound in `plan`; out.size() must be ceil(x.size() * L / M).
template <class Epilogue>
void PolyphaseInto(std::span<const float> x, ResamplerPlan& plan,
                   std::span<float> out, Epilogue&& epilogue) {
  const std::size_t L = plan.up;
  const std::size_t M = plan.down;
  const std::size_t size = x.size();
  const std::size_t delay = plan.taps.size() / 2;
  const float gain = static_cast<float>(L);
  const double* taps = plan.phase_taps.data();
  const std::size_t* begin = plan.phase_begin.data();

  // Any single output: the in-range taps are bounded up front, so the walk
  // has no per-tap branch.
  const auto single = [&](std::size_t n) {
    const std::size_t u = n * M + delay;
    const std::size_t p = u % L;
    const std::size_t k0 = u / L;
    const double* h = taps + begin[p];
    const std::size_t t_end = std::min(begin[p + 1] - begin[p], k0 + 1);
    double acc = 0.0;
    for (std::size_t t = k0 >= size ? k0 - size + 1 : 0; t < t_end; ++t) {
      acc += h[t] * static_cast<double>(x[k0 - t]);
    }
    out[n] = epilogue(gain * static_cast<float>(acc), n);
  };

  std::size_t n = 0;
  if (M == 1) {
    // Interpolation: the outputs of phase p at inputs k, k+1, ... share the
    // phase's taps, so kPolyphaseLanes of them accumulate together. Input
    // blocks from k_first on have every tap of every phase in range and
    // land at n >= 0. Phase 0 holds the most taps. Each block's inputs are
    // widened to double once, into plan.block_inputs, for all L phases.
    constexpr std::size_t V = kPolyphaseLanes;
    const std::size_t reach = begin[1] - begin[0] - 1;
    const std::size_t k_first = std::max(reach, (delay + L - 1) / L);
    double* block = plan.block_inputs.data();
    if (k_first + V <= size) {
      for (; n < k_first * L - delay; ++n) single(n);
      std::size_t k = k_first;
      for (; k + V <= size; k += V) {
        std::copy(x.data() + k - reach, x.data() + k + V, block);
        for (std::size_t p = 0; p < L; ++p) {
          const double* h = taps + begin[p];
          const std::size_t num_taps = begin[p + 1] - begin[p];
          Lane4d acc[V / 4] = {};
          for (std::size_t t = 0; t < num_taps; ++t) {
            const double ht = h[t];
            const double* xs = block + reach - t;
            for (std::size_t a = 0; a < V / 4; ++a) {
              Lane4d xv;
              std::memcpy(&xv, xs + 4 * a, sizeof(xv));
              acc[a] += ht * xv;
            }
          }
          std::size_t m = k * L + p - delay;
          for (std::size_t v = 0; v < V; ++v, m += L) {
            const double sum = acc[v / 4][v % 4];
            out[m] = epilogue(gain * static_cast<float>(sum), m);
          }
        }
      }
      n = k * L - delay;
    }
  }
  for (; n < out.size(); ++n) single(n);
}

/// ResampleInto with `epilogue` applied to every output sample (see
/// PolyphaseInto). At identity rates the epilogue maps the input samples.
template <class Epilogue>
void ResampleMapInto(const audio::Waveform& input, int target_rate,
                     ResamplerPlan& plan, audio::Waveform& out,
                     Epilogue&& epilogue, std::size_t taps_per_phase = 24) {
  NEC_CHECK_MSG(target_rate > 0, "target rate must be positive");
  NEC_CHECK_MSG(input.sample_rate() > 0, "input must have a sample rate");
  if (input.sample_rate() == target_rate) {
    if (&out != &input) out = input;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = epilogue(out[i], i);
    }
    return;
  }
  const std::span<const float> x = input.samples();
  if (x.empty()) {
    out.AssignSilence(target_rate, 0);
    return;
  }
  plan.Bind(input.sample_rate(), target_rate, taps_per_phase);
  // ceil(size * L / M)
  out.AssignSilence(target_rate, (x.size() * plan.up + plan.down - 1) /
                                     plan.down);
  PolyphaseInto(x, plan, out.samples(), epilogue);
}

}  // namespace nec::dsp
