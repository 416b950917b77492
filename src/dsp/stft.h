// Short-time Fourier transform and its inverse.
//
// Matches the paper's analysis front end (§IV-B1): Hann window, FFT size
// 1200 at 16 kHz (601 bins, 13.31 Hz resolution), window length 400 (25 ms)
// and hop 160 (10 ms; 15 ms overlap). Spectrograms are stored frame-major
// (T, F) — the transposed layout the paper feeds to the selector network.
//
// The streaming hot path calls Stft/Istft once per chunk, transforming
// ~100 frames each; StftWorkspace carries the cached FFT plan, window and
// scratch buffers across calls so that path performs no per-frame
// allocation. The workspace-free overloads remain for one-shot callers.
//
// Both directions transform kFftLanes frames per FFT pass (see
// FftPlan::TransformLanes): the forward STFT windows a block of frames
// straight into the lane layout, folding the bit-reversal into that gather,
// and the ISTFT scatters a block of conjugate-symmetric spectra the same
// way, then overlap-adds the block in ascending frame order. Every output
// is bit-identical to transforming one frame at a time. Bluestein sizes
// (the paper's 1200) fill the same block frame by frame.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "audio/waveform.h"
#include "dsp/fft.h"
#include "dsp/window.h"

namespace nec::dsp {

/// STFT parameterization. Defaults mirror the paper's configuration.
struct StftConfig {
  std::size_t fft_size = 1200;   ///< FFT length; bins = fft_size/2 + 1
  std::size_t win_length = 400;  ///< analysis window length in samples
  std::size_t hop_length = 160;  ///< frame advance in samples
  WindowType window = WindowType::kHann;

  std::size_t num_bins() const { return fft_size / 2 + 1; }

  /// Number of frames produced for `num_samples` input samples
  /// (non-centered framing; the final partial frame is zero-padded so any
  /// non-empty input yields at least one frame).
  std::size_t NumFrames(std::size_t num_samples) const;
};

/// Reusable scratch state for repeated forward/inverse STFTs. Binds lazily
/// to the first StftConfig it sees and rebinds transparently if a
/// different configuration comes along. Single-threaded use only; each
/// streaming session owns its own workspace.
struct StftWorkspace {
  /// Ensures plan/window match `config` (called by Stft/Istft internally).
  void Bind(const StftConfig& config);

  std::shared_ptr<const FftPlan> plan;
  std::vector<float> window;
  std::vector<float> block;  ///< kFftLanes frames in the FFT lane layout
  std::vector<float> frame;                 ///< windowed frame (Bluestein)
  std::vector<std::complex<float>> half;    ///< half spectrum (Bluestein)
  std::vector<float> time;                  ///< inverse output (Bluestein)
  std::vector<double> acc, wsum;            ///< overlap-add accumulators
  FftScratch fft;

 private:
  std::size_t bound_fft_size_ = 0;
  std::size_t bound_win_length_ = 0;
  WindowType bound_window_ = WindowType::kHann;
  bool bound_ = false;
};

/// Magnitude + phase spectrogram, frame-major: index (t, f) at t*num_bins+f.
class Spectrogram {
 public:
  Spectrogram() = default;
  Spectrogram(std::size_t num_frames, std::size_t num_bins);

  std::size_t num_frames() const { return num_frames_; }
  std::size_t num_bins() const { return num_bins_; }

  float& MagAt(std::size_t t, std::size_t f) {
    return mag_[t * num_bins_ + f];
  }
  float MagAt(std::size_t t, std::size_t f) const {
    return mag_[t * num_bins_ + f];
  }
  float& PhaseAt(std::size_t t, std::size_t f) {
    return phase_[t * num_bins_ + f];
  }
  float PhaseAt(std::size_t t, std::size_t f) const {
    return phase_[t * num_bins_ + f];
  }

  std::vector<float>& mag() { return mag_; }
  const std::vector<float>& mag() const { return mag_; }
  std::vector<float>& phase() { return phase_; }
  const std::vector<float>& phase() const { return phase_; }

  /// Total energy (sum of squared magnitudes).
  double Energy() const;

  /// Re-dimensions in place to `num_frames` x `num_bins`, zero-filling both
  /// surfaces and reusing capacity. Same post-state as constructing a fresh
  /// Spectrogram(num_frames, num_bins), minus the allocations once the
  /// buffers have grown to steady-state size.
  void Resize(std::size_t num_frames, std::size_t num_bins);

 private:
  std::size_t num_frames_ = 0;
  std::size_t num_bins_ = 0;
  std::vector<float> mag_;
  std::vector<float> phase_;
};

/// Forward STFT of a waveform.
Spectrogram Stft(const audio::Waveform& wave, const StftConfig& config);

/// Forward STFT reusing `ws` (allocation-free after the first call).
Spectrogram Stft(const audio::Waveform& wave, const StftConfig& config,
                 StftWorkspace& ws);

/// Forward STFT into a caller-owned spectrogram (resized in place). With a
/// warm `ws` and an `out` that has already seen this frame count, the call
/// performs no allocation — the streaming per-chunk path.
void Stft(const audio::Waveform& wave, const StftConfig& config,
          StftWorkspace& ws, Spectrogram& out);

/// Magnitudes only, frame-major (t * num_bins + f), bit-identical to
/// Stft(...).mag(): the same transform without the phase (std::arg) that
/// magnitude-only consumers such as enrollment's LAS would discard.
std::vector<float> StftMagnitude(const audio::Waveform& wave,
                                 const StftConfig& config);

/// Inverse STFT with windowed overlap-add and window-square normalization.
/// `num_samples` trims/pads the reconstruction to an exact length
/// (0 = natural length).
audio::Waveform Istft(const Spectrogram& spec, const StftConfig& config,
                      int sample_rate, std::size_t num_samples = 0);

/// Inverse STFT reusing `ws`.
audio::Waveform Istft(const Spectrogram& spec, const StftConfig& config,
                      int sample_rate, std::size_t num_samples,
                      StftWorkspace& ws);

/// Reconstructs a waveform from an arbitrary magnitude surface and a donor
/// phase (the overshadowing pipeline reuses the mixed signal's phase for the
/// shadow magnitude, as the paper's ISTFT stage does).
audio::Waveform IstftWithPhase(const std::vector<float>& mag,
                               const Spectrogram& phase_donor,
                               const StftConfig& config, int sample_rate,
                               std::size_t num_samples = 0);

/// IstftWithPhase reusing `ws`.
audio::Waveform IstftWithPhase(const std::vector<float>& mag,
                               const Spectrogram& phase_donor,
                               const StftConfig& config, int sample_rate,
                               std::size_t num_samples, StftWorkspace& ws);

/// IstftWithPhase into a caller-owned waveform (rebound in place; capacity
/// reused, so a warm workspace + steady-state `out` means no allocation).
void IstftWithPhaseInto(const std::vector<float>& mag,
                        const Spectrogram& phase_donor,
                        const StftConfig& config, int sample_rate,
                        std::size_t num_samples, StftWorkspace& ws,
                        audio::Waveform& out);

}  // namespace nec::dsp
