// Rational sample-rate conversion.
//
// The NEC simulation runs the audible world at 16 kHz (the paper's rate)
// and the over-the-air ultrasound channel at 192 kHz so that 24–28 kHz
// carriers and their second-order intermodulation products are represented
// without aliasing. Upsampling by 12 (16k → 192k) and decimating by 12
// (192k → 16k inside the microphone model) are the hot paths; both run the
// one phase-major polyphase kernel in dsp/polyphase.h.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "audio/waveform.h"

namespace nec::dsp {

/// Resamples `input` to `target_rate` with a polyphase windowed-sinc FIR.
/// Exact rational conversion: L/M is derived from target/source rates via
/// gcd. Identity rates return a copy. `taps_per_phase` controls quality
/// (filter length = taps_per_phase * L, group-delay compensated so the
/// output is time-aligned with the input).
audio::Waveform Resample(const audio::Waveform& input, int target_rate,
                         std::size_t taps_per_phase = 24);

/// cos(w * i) for i in [0, rate), w = 2*pi*hz/rate: one second of a carrier
/// at sample rate `rate`, generated by the same expression the carrier
/// would be evaluated with inline, so a table read and an inline cos return
/// the same bits. Immutable after construction.
struct CosineTable {
  CosineTable(double hz, int rate);

  /// cos(w * i); indices past the table are computed inline.
  double At(std::size_t i) const {
    return i < values.size() ? values[i]
                             : std::cos(w * static_cast<double>(i));
  }

  double hz;
  int rate;
  double w;
  std::vector<double> values;
};

/// Returns the process-wide table for (hz, rate) (thread-safe; built on
/// first use, then shared for the lifetime of the process).
std::shared_ptr<const CosineTable> GetCosineTable(double hz, int rate);

/// Cached polyphase filter for a fixed (source rate, target rate,
/// taps_per_phase) conversion. Binds lazily on first use and rebinds if the
/// rates change; the tap values are produced by the exact same design call
/// as the plan-free Resample, so the two paths are bit-identical. Designing
/// the FIR dominates per-call cost (and allocates), so the streaming hot
/// path keeps one plan per modulation direction and reuses it every chunk.
struct ResamplerPlan {
  /// Ensures the cached taps match the conversion (no-op when warm).
  void Bind(int src_rate, int target_rate, std::size_t taps_per_phase);

  int src_rate = 0;
  int target_rate = 0;
  std::size_t taps_per_phase = 0;
  std::size_t up = 0;    ///< L: interpolation factor
  std::size_t down = 0;  ///< M: decimation factor
  std::vector<float> taps;  ///< the designed FIR, in design order
  /// The same taps regrouped phase-major and widened to double: phase p
  /// (taps p, p+L, p+2L, ...) occupies [phase_begin[p], phase_begin[p+1]).
  std::vector<double> phase_taps;
  std::vector<std::size_t> phase_begin;
  /// Kernel scratch: one lane block of input plus phase 0's reach, widened.
  std::vector<double> block_inputs;
  /// Carrier bound by channel::ModulateAmInto on a stream's first chunk, so
  /// later chunks read it without touching the process-wide cache.
  std::shared_ptr<const CosineTable> carrier;
};

/// Resample into a caller-owned output buffer, reusing `plan`'s cached
/// taps. Bit-identical to the plan-free overload; with a warm plan and a
/// steady-state `out` the call performs no allocation.
void ResampleInto(const audio::Waveform& input, int target_rate,
                  ResamplerPlan& plan, audio::Waveform& out,
                  std::size_t taps_per_phase = 24);

}  // namespace nec::dsp
