#include "dsp/stft.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/check.h"
#include "dsp/fft.h"

namespace nec::dsp {

std::size_t StftConfig::NumFrames(std::size_t num_samples) const {
  if (num_samples == 0) return 0;
  if (num_samples <= win_length) return 1;
  return 1 + (num_samples - win_length + hop_length - 1) / hop_length;
}

void StftWorkspace::Bind(const StftConfig& config) {
  if (bound_ && bound_fft_size_ == config.fft_size &&
      bound_win_length_ == config.win_length &&
      bound_window_ == config.window) {
    return;
  }
  plan = GetFftPlan(config.fft_size);
  window = MakeWindow(config.window, config.win_length, /*periodic=*/true);
  block.assign(2 * kFftLanes * config.fft_size, 0.0f);
  frame.assign(config.win_length, 0.0f);
  bound_fft_size_ = config.fft_size;
  bound_win_length_ = config.win_length;
  bound_window_ = config.window;
  bound_ = true;
}

Spectrogram::Spectrogram(std::size_t num_frames, std::size_t num_bins)
    : num_frames_(num_frames),
      num_bins_(num_bins),
      mag_(num_frames * num_bins, 0.0f),
      phase_(num_frames * num_bins, 0.0f) {}

double Spectrogram::Energy() const {
  double acc = 0.0;
  for (float m : mag_) acc += static_cast<double>(m) * m;
  return acc;
}

void Spectrogram::Resize(std::size_t num_frames, std::size_t num_bins) {
  num_frames_ = num_frames;
  num_bins_ = num_bins;
  mag_.assign(num_frames * num_bins, 0.0f);
  phase_.assign(num_frames * num_bins, 0.0f);
}

namespace {

constexpr std::size_t kPos = 2 * kFftLanes;  // floats per lane position

std::size_t CheckedNumFrames(const audio::Waveform& wave,
                             const StftConfig& config) {
  NEC_CHECK_MSG(config.fft_size >= config.win_length,
                "fft_size must be >= win_length");
  NEC_CHECK_MSG(config.hop_length >= 1, "hop_length must be >= 1");
  return config.NumFrames(wave.size());
}

// The forward core: windows frames kFftLanes at a time into ws.block,
// transforms the block and writes each frame's magnitudes (and phases,
// unless `phase` is null) at row t of the frame-major outputs.
void StftCore(const audio::Waveform& wave, const StftConfig& config,
              std::size_t frames, StftWorkspace& ws, float* mag,
              float* phase) {
  if (frames == 0) return;
  ws.Bind(config);
  const FftPlan& plan = *ws.plan;
  const std::size_t bins = config.num_bins();
  const std::size_t win = config.win_length, hop = config.hop_length;
  const auto samples = wave.samples();
  const auto windowed = [&](std::size_t t, std::size_t i) {
    const std::size_t src = t * hop + i;
    return (src < samples.size() ? samples[src] : 0.0f) * ws.window[i];
  };
  float* block = ws.block.data();

  for (std::size_t t0 = 0; t0 < frames; t0 += kFftLanes) {
    const std::size_t fill = std::min(kFftLanes, frames - t0);
    if (plan.bluestein()) {
      for (std::size_t l = 0; l < fill; ++l) {
        for (std::size_t i = 0; i < win; ++i) ws.frame[i] = windowed(t0 + l, i);
        RealFft(ws.frame, plan, ws.half, ws.fft);
        for (std::size_t f = 0; f < bins; ++f) {
          block[f * kPos + l] = ws.half[f].real();
          block[f * kPos + kFftLanes + l] = ws.half[f].imag();
        }
      }
    } else {
      // Gather in bit-reversed order: position j takes sample bitrev[j] of
      // every frame in the block (zero past the window or the last frame).
      const auto bitrev = plan.bitrev();
      for (std::size_t j = 0; j < bitrev.size(); ++j) {
        float* pos = block + j * kPos;
        const std::size_t i = bitrev[j];
        const std::size_t live = i < win ? fill : 0;
        for (std::size_t l = 0; l < live; ++l) pos[l] = windowed(t0 + l, i);
        std::fill(pos + live, pos + kPos, 0.0f);
      }
      plan.TransformLanes(block, /*inverse=*/false);
    }
    for (std::size_t l = 0; l < fill; ++l) {
      const std::size_t row = (t0 + l) * bins;
      for (std::size_t f = 0; f < bins; ++f) {
        const std::complex<float> c(block[f * kPos + l],
                                    block[f * kPos + kFftLanes + l]);
        mag[row + f] = std::abs(c);
        if (phase != nullptr) phase[row + f] = std::arg(c);
      }
    }
  }
}

}  // namespace

void Stft(const audio::Waveform& wave, const StftConfig& config,
          StftWorkspace& ws, Spectrogram& out) {
  const std::size_t frames = CheckedNumFrames(wave, config);
  out.Resize(frames, config.num_bins());
  StftCore(wave, config, frames, ws, out.mag().data(), out.phase().data());
}

std::vector<float> StftMagnitude(const audio::Waveform& wave,
                                 const StftConfig& config) {
  const std::size_t frames = CheckedNumFrames(wave, config);
  std::vector<float> mag(frames * config.num_bins());
  StftWorkspace ws;
  StftCore(wave, config, frames, ws, mag.data(), /*phase=*/nullptr);
  return mag;
}

Spectrogram Stft(const audio::Waveform& wave, const StftConfig& config,
                 StftWorkspace& ws) {
  Spectrogram spec;
  Stft(wave, config, ws, spec);
  return spec;
}

Spectrogram Stft(const audio::Waveform& wave, const StftConfig& config) {
  StftWorkspace ws;
  return Stft(wave, config, ws);
}

namespace {

void IstftImplInto(const std::vector<float>& mag,
                   const std::vector<float>& phase, std::size_t num_frames,
                   std::size_t num_bins, const StftConfig& config,
                   int sample_rate, std::size_t num_samples,
                   StftWorkspace& ws, audio::Waveform& out) {
  NEC_CHECK(num_bins == config.num_bins());
  const std::size_t natural_len =
      num_frames == 0 ? 0
                      : (num_frames - 1) * config.hop_length +
                            config.win_length;
  const std::size_t out_len = num_samples > 0 ? num_samples : natural_len;

  out.AssignSilence(sample_rate, std::max<std::size_t>(out_len, 1));
  ws.Bind(config);
  ws.acc.assign(natural_len, 0.0);
  ws.wsum.assign(natural_len, 0.0);
  ws.half.resize(num_bins);

  // Not std::polar: shadow surfaces carry *signed* magnitudes (a negative
  // cell means anti-phase content) and std::polar is UB for negative rho.
  const auto bin = [&](std::size_t t, std::size_t f) {
    const float m = mag[t * num_bins + f];
    const float p = phase[t * num_bins + f];
    return std::complex<float>(m * std::cos(p), m * std::sin(p));
  };
  const FftPlan& plan = *ws.plan;
  const std::size_t n = config.fft_size, win = config.win_length;
  float* block = ws.block.data();

  for (std::size_t t0 = 0; t0 < num_frames; t0 += kFftLanes) {
    const std::size_t fill = std::min(kFftLanes, num_frames - t0);
    if (plan.bluestein()) {
      for (std::size_t l = 0; l < fill; ++l) {
        for (std::size_t f = 0; f < num_bins; ++f) ws.half[f] = bin(t0 + l, f);
        InverseRealFft(ws.half, plan, ws.time, ws.fft);
        for (std::size_t i = 0; i < win; ++i) block[i * kPos + l] = ws.time[i];
      }
    } else {
      // Scatter each half spectrum and its conjugate mirror (bins n-f for
      // 0 < f < n/2) straight to their bit-reversed positions.
      const auto bitrev = plan.bitrev();
      for (std::size_t f = 0; f < num_bins; ++f) {
        float* pos = block + bitrev[f] * kPos;
        float* mirror =
            f > 0 && f < n / 2 ? block + bitrev[n - f] * kPos : nullptr;
        for (std::size_t l = 0; l < kFftLanes; ++l) {
          const std::complex<float> c =
              l < fill ? bin(t0 + l, f) : std::complex<float>(0.0f, 0.0f);
          pos[l] = c.real();
          pos[kFftLanes + l] = c.imag();
          if (mirror != nullptr) {
            mirror[l] = c.real();
            mirror[kFftLanes + l] = -c.imag();
          }
        }
      }
      plan.TransformLanes(block, /*inverse=*/true);
    }
    // Overlap-add in ascending frame order, so every sample's double sum
    // takes its addends in the order the frame-at-a-time loop did.
    for (std::size_t l = 0; l < fill; ++l) {
      const std::size_t start = (t0 + l) * config.hop_length;
      for (std::size_t i = 0; i < win; ++i) {
        ws.acc[start + i] +=
            static_cast<double>(block[i * kPos + l]) * ws.window[i];
        ws.wsum[start + i] +=
            static_cast<double>(ws.window[i]) * ws.window[i];
      }
    }
  }

  // The window-sum envelope is floored: at the clip edges only a window
  // tail covers a sample, and for *inconsistent* magnitude surfaces (e.g.
  // selector shadows, whose frames are not STFTs of any one signal) the
  // frame energy does not vanish there — dividing by a near-zero window
  // sum would blow those samples up by orders of magnitude.
  constexpr double kWsumFloor = 5e-2;
  for (std::size_t i = 0; i < std::min(out_len, natural_len); ++i) {
    out[i] = static_cast<float>(ws.acc[i] / std::max(ws.wsum[i], kWsumFloor));
  }
  out.ResizeTo(out_len);
}

}  // namespace

audio::Waveform Istft(const Spectrogram& spec, const StftConfig& config,
                      int sample_rate, std::size_t num_samples,
                      StftWorkspace& ws) {
  audio::Waveform out;
  IstftImplInto(spec.mag(), spec.phase(), spec.num_frames(),
                spec.num_bins(), config, sample_rate, num_samples, ws, out);
  return out;
}

audio::Waveform Istft(const Spectrogram& spec, const StftConfig& config,
                      int sample_rate, std::size_t num_samples) {
  StftWorkspace ws;
  return Istft(spec, config, sample_rate, num_samples, ws);
}

void IstftWithPhaseInto(const std::vector<float>& mag,
                        const Spectrogram& phase_donor,
                        const StftConfig& config, int sample_rate,
                        std::size_t num_samples, StftWorkspace& ws,
                        audio::Waveform& out) {
  NEC_CHECK_MSG(
      mag.size() == phase_donor.mag().size(),
      "magnitude surface shape must match phase donor spectrogram");
  IstftImplInto(mag, phase_donor.phase(), phase_donor.num_frames(),
                phase_donor.num_bins(), config, sample_rate, num_samples, ws,
                out);
}

audio::Waveform IstftWithPhase(const std::vector<float>& mag,
                               const Spectrogram& phase_donor,
                               const StftConfig& config, int sample_rate,
                               std::size_t num_samples, StftWorkspace& ws) {
  audio::Waveform out;
  IstftWithPhaseInto(mag, phase_donor, config, sample_rate, num_samples, ws,
                     out);
  return out;
}

audio::Waveform IstftWithPhase(const std::vector<float>& mag,
                               const Spectrogram& phase_donor,
                               const StftConfig& config, int sample_rate,
                               std::size_t num_samples) {
  StftWorkspace ws;
  return IstftWithPhase(mag, phase_donor, config, sample_rate, num_samples,
                        ws);
}

}  // namespace nec::dsp
