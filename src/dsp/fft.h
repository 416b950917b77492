// Fast Fourier transforms for the NEC library.
//
// The paper's spectrogram uses an FFT size of 1200 (not a power of two), so
// we provide a mixed strategy: an iterative radix-2 Cooley–Tukey kernel for
// power-of-two sizes and Bluestein's chirp-z algorithm for every other size.
// Twiddle factors are computed in double precision; data is stored as
// std::complex<float>, which keeps spectrogram memory compact.
//
// Hot-path plan cache: the streaming loop transforms thousands of frames of
// the same few sizes, so recomputing twiddle recurrences and the Bluestein
// chirp/B-spectrum per call costs as much as the transform itself. FftPlan
// precomputes those tables once per size; GetFftPlan() memoizes plans in a
// thread-safe process-wide cache. Planned transforms are *bit-identical* to
// the unplanned reference kernels (the tables are generated by the exact
// same double-precision recurrences) — tests/test_fft.cpp asserts this, and
// it is what keeps the nec::runtime per-session bit-exactness audit valid.
//
// Frame-blocked transforms: the STFT and ISTFT transform many frames of one
// size, so a radix-2 plan also runs kFftLanes frames side by side, one per
// double lane of a native vector (TransformLanes). There is one radix-2
// kernel, a template over the lane width; single transforms use its
// width-1 instance. Every lane runs the same butterfly sequence on the same
// twiddle table with float storage between stages, so a lane's output is
// bit-identical to a single transform of that frame.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace nec::dsp {

/// Frames per lane-blocked transform: the doubles in one native vector
/// register (the butterflies run in double).
#if defined(__AVX512F__)
inline constexpr std::size_t kFftLanes = 8;
#elif defined(__AVX__)
inline constexpr std::size_t kFftLanes = 4;
#else
inline constexpr std::size_t kFftLanes = 2;
#endif

/// Reusable scratch buffers for planned transforms. Reusing one FftScratch
/// across calls makes the streaming path allocation-free per frame. A
/// scratch may be shared across plans/sizes (buffers grow to the largest
/// size seen) but NOT across threads.
struct FftScratch {
  std::vector<std::complex<float>> conv;  ///< Bluestein convolution buffer
  std::vector<std::complex<float>> spec;  ///< full-length real-FFT staging
};

/// Precomputed tables for one FFT size (both directions).
///
/// Immutable after construction; any number of threads may call Transform
/// concurrently (each with its own scratch). Prefer GetFftPlan() over
/// constructing plans directly so sizes are shared process-wide.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  bool bluestein() const { return !chirp_fwd_.empty(); }

  /// In-place transform of `data` (size() elements; inverse includes the
  /// 1/N scaling). `scratch` avoids per-call allocation for Bluestein
  /// sizes; pass nullptr to use a call-local buffer.
  void Transform(std::vector<std::complex<float>>& data, bool inverse,
                 FftScratch* scratch = nullptr) const;

  /// Bit-reversal permutation of a radix-2 plan (empty for Bluestein):
  /// input position j of the transform takes sample bitrev()[j].
  std::span<const std::uint32_t> bitrev() const { return bitrev_; }

  /// In-place transform of kFftLanes frames at once (radix-2 plans only;
  /// inverse includes the 1/N scaling). Lane layout: position j holds the
  /// kFftLanes real parts, then the kFftLanes imaginary parts, as floats,
  /// so `block` has 2 * kFftLanes * size() elements. The input must already
  /// be in bit-reversed order (position j holds sample bitrev()[j]); the
  /// output is in natural order. Lane l is bit-identical to Transform of
  /// frame l alone.
  void TransformLanes(float* block, bool inverse) const;

 private:
  void Radix2Single(std::complex<float>* data, bool inverse) const;
  void BluesteinPlanned(std::vector<std::complex<float>>& data, bool inverse,
                        FftScratch* scratch) const;

  std::size_t n_;

  // Radix-2 tables (power-of-two n, and the Bluestein sub-transform size).
  // Both directions are stored explicitly — they are built by the exact
  // cos/sin + recurrence the unplanned kernel evaluates, rather than
  // derived by conjugation, so bit-exactness never leans on libm symmetry.
  std::vector<std::uint32_t> bitrev_;  // n entries
  std::vector<std::complex<double>> twid_fwd_, twid_inv_;

  // Bluestein tables (empty when n is a power of two). The chirp is kept
  // per direction: the unplanned kernel evaluates cos/sin at sign-dependent
  // angles, and bit-exactness must not assume libm odd-symmetry.
  std::vector<std::complex<double>> chirp_fwd_, chirp_inv_;
  std::vector<std::complex<float>> bhat_fwd_, bhat_inv_;  // FFT of chirp^*
  std::shared_ptr<const FftPlan> sub_;  // radix-2 plan of the conv size m
};

/// Returns the cached plan for size n (thread-safe; plans are built on
/// first use and shared for the lifetime of the process).
std::shared_ptr<const FftPlan> GetFftPlan(std::size_t n);

/// In-place complex FFT of arbitrary size (inverse includes 1/N scaling).
/// Sizes that are powers of two use radix-2; others use Bluestein. Routed
/// through the plan cache.
void Fft(std::vector<std::complex<float>>& data, bool inverse = false);

/// Forward real FFT: returns the non-redundant half spectrum of length
/// nfft/2 + 1. `input` is zero-padded (or truncated) to `nfft` samples.
std::vector<std::complex<float>> RealFft(std::span<const float> input,
                                         std::size_t nfft);

/// Allocation-free planned variant: writes the half spectrum into `out`
/// (resized to plan.size()/2 + 1), staging through `scratch`.
void RealFft(std::span<const float> input, const FftPlan& plan,
             std::vector<std::complex<float>>& out, FftScratch& scratch);

/// Inverse of RealFft: reconstructs nfft real samples from a half spectrum
/// of length nfft/2 + 1 (conjugate symmetry is assumed, not checked).
std::vector<float> InverseRealFft(
    std::span<const std::complex<float>> half_spectrum, std::size_t nfft);

/// Allocation-free planned variant: writes plan.size() samples into `out`.
void InverseRealFft(std::span<const std::complex<float>> half_spectrum,
                    const FftPlan& plan, std::vector<float>& out,
                    FftScratch& scratch);

/// Returns true if n is a power of two (n >= 1).
bool IsPowerOfTwo(std::size_t n);

/// Smallest power of two >= n.
std::size_t NextPowerOfTwo(std::size_t n);

namespace detail {

/// Unplanned reference kernels (the pre-plan-cache implementation). Kept as
/// the ground truth for the planned-vs-unplanned bit-exactness tests; not
/// for production use.
void FftUnplanned(std::vector<std::complex<float>>& data, bool inverse);

}  // namespace detail

}  // namespace nec::dsp
