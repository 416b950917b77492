#include "dsp/fft.h"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace nec::dsp {
namespace {

using Cf = std::complex<float>;
using Cd = std::complex<double>;

// Iterative radix-2 Cooley–Tukey; `data.size()` must be a power of two.
// Reference (unplanned) kernel: recomputes twiddles per call. FftPlan's
// tables are generated by the same recurrence, so the planned lane kernel
// below is bit-identical to this one.
void Radix2(std::vector<Cf>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Cd wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Cd w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cd u(data[i + k]);
        const Cd v = Cd(data[i + k + len / 2]) * w;
        data[i + k] = Cf(static_cast<float>((u + v).real()),
                         static_cast<float>((u + v).imag()));
        data[i + k + len / 2] = Cf(static_cast<float>((u - v).real()),
                                   static_cast<float>((u - v).imag()));
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (Cf& x : data) x *= inv_n;
  }
}

// Chirp factors c_k = exp(sign * i*pi*k^2/n). k^2 mod 2n avoids precision
// loss for large k. Shared between the unplanned kernel and plan building
// so both evaluate cos/sin at the exact same angles.
std::vector<Cd> MakeChirp(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Cd> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle =
        sign * std::numbers::pi * static_cast<double>(k2) / n;
    chirp[k] = Cd(std::cos(angle), std::sin(angle));
  }
  return chirp;
}

// Bluestein's chirp-z transform for arbitrary n, implemented with a
// power-of-two convolution. Handles both directions; inverse scales by 1/n.
// Reference (unplanned) kernel.
void Bluestein(std::vector<Cf>& data, bool inverse) {
  const std::size_t n = data.size();
  const std::vector<Cd> chirp = MakeChirp(n, inverse);

  const std::size_t m = NextPowerOfTwo(2 * n - 1);
  std::vector<Cf> a(m, Cf(0, 0)), b(m, Cf(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    const Cd v = Cd(data[k]) * chirp[k];
    a[k] = Cf(static_cast<float>(v.real()), static_cast<float>(v.imag()));
  }
  for (std::size_t k = 0; k < n; ++k) {
    const Cd v = std::conj(chirp[k]);
    b[k] = Cf(static_cast<float>(v.real()), static_cast<float>(v.imag()));
    if (k != 0)
      b[m - k] = b[k];  // circular symmetry for negative lags
  }

  Radix2(a, false);
  Radix2(b, false);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  Radix2(a, true);

  for (std::size_t k = 0; k < n; ++k) {
    Cd v = Cd(a[k]) * chirp[k];
    if (inverse) v /= static_cast<double>(n);
    data[k] = Cf(static_cast<float>(v.real()), static_cast<float>(v.imag()));
  }
}

}  // namespace

// ---------------------------------------------------------------- FftPlan

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n <= 1) return;

  const std::size_t radix2_n = IsPowerOfTwo(n) ? n : NextPowerOfTwo(2 * n - 1);

  // Bit-reversal table for the radix-2 size this plan actually transforms
  // (n itself, or the Bluestein convolution size m via the sub-plan).
  if (IsPowerOfTwo(n)) {
    bitrev_.resize(n);
    bitrev_[0] = 0;
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = static_cast<std::uint32_t>(j);
    }

    // Twiddles per stage and direction, flattened: stage `len` contributes
    // len/2 factors wlen^k at offset len/2 - 1 (sum of all earlier
    // stages). The values are produced by the same w *= wlen recurrence
    // the unplanned kernel runs per block, so lookups reproduce its
    // rounding bit-for-bit.
    const auto make_twiddles = [n](bool inverse) {
      std::vector<Cd> twid(n - 1);
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                             static_cast<double>(len);
        const Cd wlen(std::cos(angle), std::sin(angle));
        Cd w(1.0, 0.0);
        Cd* stage = twid.data() + (len / 2 - 1);
        for (std::size_t k = 0; k < len / 2; ++k) {
          stage[k] = w;
          w *= wlen;
        }
      }
      return twid;
    };
    twid_fwd_ = make_twiddles(/*inverse=*/false);
    twid_inv_ = make_twiddles(/*inverse=*/true);
    return;
  }

  // Bluestein tables. The chirped input sequence depends on the data, but
  // the chirp itself and the convolution kernel's spectrum (the FFT of
  // b_k = conj(chirp_k)) are data-independent — precompute both directions.
  chirp_fwd_ = MakeChirp(n, /*inverse=*/false);
  chirp_inv_ = MakeChirp(n, /*inverse=*/true);
  sub_ = GetFftPlan(radix2_n);

  const auto make_bhat = [&](const std::vector<Cd>& chirp) {
    std::vector<Cf> b(radix2_n, Cf(0, 0));
    for (std::size_t k = 0; k < n; ++k) {
      const Cd v = std::conj(chirp[k]);
      b[k] = Cf(static_cast<float>(v.real()), static_cast<float>(v.imag()));
      if (k != 0) b[radix2_n - k] = b[k];
    }
    sub_->Transform(b, /*inverse=*/false);
    return b;
  };
  bhat_fwd_ = make_bhat(chirp_fwd_);
  bhat_inv_ = make_bhat(chirp_inv_);
}

namespace {

// Lane types of the radix-2 kernel: L doubles for the butterfly arithmetic
// and the L floats they are stored as between stages. The float type is an
// unaligned may_alias vector (the form _mm*_loadu_ps uses), so a load is
// one instruction straight into a register. Width 1 is plain scalars, which
// makes a width-1 position exactly one std::complex<float>.
typedef double LaneD __attribute__((vector_size(8 * kFftLanes)));
typedef float LaneF
    __attribute__((vector_size(4 * kFftLanes), aligned(4), may_alias));

template <std::size_t L>
struct Lanes;

template <>
struct Lanes<kFftLanes> {
  using D = LaneD;
  static D Load(const float* p) {
    return __builtin_convertvector(*reinterpret_cast<const LaneF*>(p), D);
  }
  static void Store(float* p, D v) {
    *reinterpret_cast<LaneF*>(p) = __builtin_convertvector(v, LaneF);
  }
};

template <>
struct Lanes<1> {
  using D = double;
  static D Load(const float* p) { return *p; }
  static void Store(float* p, D v) { *p = static_cast<float>(v); }
};

// The radix-2 butterfly stages over L frames in the lane layout (position
// j: L real parts, then L imaginary parts), input in bit-reversed order.
// Per lane this is exactly the reference Radix2 above: the product v = x*w
// is std::complex<double>'s (xr*wr - xi*wi, xr*wi + xi*wr), the sums are
// rounded to float after every stage, and the twiddles are the table entries
// the reference recurrence produces. Only non-finite inputs can differ:
// the scalar complex product falls back to __muldc3 when both parts are NaN.
template <std::size_t L>
void Radix2Stages(float* data, std::size_t n, const Cd* twid, bool inverse) {
  using Lane = Lanes<L>;
  using D = typename Lane::D;
  constexpr std::size_t kStride = 2 * L;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Cd* stage = twid + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      float* a = data + i * kStride;
      float* b = a + half * kStride;
      for (std::size_t k = 0; k < half; ++k, a += kStride, b += kStride) {
        const double wr = stage[k].real(), wi = stage[k].imag();
        const D ur = Lane::Load(a), ui = Lane::Load(a + L);
        const D xr = Lane::Load(b), xi = Lane::Load(b + L);
        const D vr = xr * wr - xi * wi;
        const D vi = xr * wi + xi * wr;
        Lane::Store(a, ur + vr);
        Lane::Store(a + L, ui + vi);
        Lane::Store(b, ur - vr);
        Lane::Store(b + L, ui - vi);
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n * kStride; ++i) data[i] *= inv_n;
  }
}

}  // namespace

void FftPlan::Radix2Single(Cf* data, bool inverse) const {
  const std::size_t n = bitrev_.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  Radix2Stages<1>(reinterpret_cast<float*>(data), n,
                  (inverse ? twid_inv_ : twid_fwd_).data(), inverse);
}

void FftPlan::TransformLanes(float* block, bool inverse) const {
  NEC_CHECK_MSG(!bluestein() && n_ >= 2,
                "TransformLanes needs a radix-2 plan, size " << n_);
  Radix2Stages<kFftLanes>(block, n_, (inverse ? twid_inv_ : twid_fwd_).data(),
                          inverse);
}

void FftPlan::BluesteinPlanned(std::vector<Cf>& data, bool inverse,
                               FftScratch* scratch) const {
  const std::size_t n = n_;
  const std::size_t m = sub_->size();
  const std::vector<Cd>& chirp = inverse ? chirp_inv_ : chirp_fwd_;
  const std::vector<Cf>& bhat = inverse ? bhat_inv_ : bhat_fwd_;

  FftScratch local;
  std::vector<Cf>& a = (scratch ? scratch->conv : local.conv);
  a.assign(m, Cf(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    const Cd v = Cd(data[k]) * chirp[k];
    a[k] = Cf(static_cast<float>(v.real()), static_cast<float>(v.imag()));
  }

  sub_->Radix2Single(a.data(), /*inverse=*/false);
  for (std::size_t i = 0; i < m; ++i) a[i] *= bhat[i];
  sub_->Radix2Single(a.data(), /*inverse=*/true);

  for (std::size_t k = 0; k < n; ++k) {
    Cd v = Cd(a[k]) * chirp[k];
    if (inverse) v /= static_cast<double>(n);
    data[k] = Cf(static_cast<float>(v.real()), static_cast<float>(v.imag()));
  }
}

void FftPlan::Transform(std::vector<Cf>& data, bool inverse,
                        FftScratch* scratch) const {
  NEC_CHECK_MSG(data.size() == n_, "FftPlan size " << n_
                                                   << " given data of size "
                                                   << data.size());
  if (n_ <= 1) return;
  if (bluestein()) {
    BluesteinPlanned(data, inverse, scratch);
  } else {
    Radix2Single(data.data(), inverse);
  }
}

std::shared_ptr<const FftPlan> GetFftPlan(std::size_t n) {
  static std::mutex mu;
  static std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>>
      cache;
  {
    std::lock_guard lock(mu);
    auto it = cache.find(n);
    if (it != cache.end()) return it->second;
  }
  // Built outside the lock: Bluestein construction recurses into
  // GetFftPlan for the convolution sub-plan. Two threads may race to build
  // the same size; construction is deterministic, so either instance wins.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard lock(mu);
  return cache.try_emplace(n, std::move(plan)).first->second;
}

// ------------------------------------------------------- public wrappers

bool IsPowerOfTwo(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void Fft(std::vector<Cf>& data, bool inverse) {
  if (data.empty()) return;
  GetFftPlan(data.size())->Transform(data, inverse);
}

void RealFft(std::span<const float> input, const FftPlan& plan,
             std::vector<Cf>& out, FftScratch& scratch) {
  const std::size_t nfft = plan.size();
  NEC_CHECK_MSG(nfft >= 2, "RealFft needs nfft >= 2");
  std::vector<Cf>& buf = scratch.spec;
  buf.assign(nfft, Cf(0, 0));
  const std::size_t n = std::min(input.size(), nfft);
  for (std::size_t i = 0; i < n; ++i) buf[i] = Cf(input[i], 0.0f);
  plan.Transform(buf, /*inverse=*/false, &scratch);
  out.assign(buf.begin(),
             buf.begin() + static_cast<std::ptrdiff_t>(nfft / 2 + 1));
}

std::vector<Cf> RealFft(std::span<const float> input, std::size_t nfft) {
  FftScratch scratch;
  std::vector<Cf> out;
  RealFft(input, *GetFftPlan(nfft), out, scratch);
  return out;
}

void InverseRealFft(std::span<const Cf> half_spectrum, const FftPlan& plan,
                    std::vector<float>& out, FftScratch& scratch) {
  const std::size_t nfft = plan.size();
  NEC_CHECK_MSG(half_spectrum.size() == nfft / 2 + 1,
                "half spectrum size " << half_spectrum.size()
                                      << " does not match nfft " << nfft);
  std::vector<Cf>& full = scratch.spec;
  full.resize(nfft);
  for (std::size_t i = 0; i < half_spectrum.size(); ++i)
    full[i] = half_spectrum[i];
  for (std::size_t i = half_spectrum.size(); i < nfft; ++i)
    full[i] = std::conj(full[nfft - i]);
  plan.Transform(full, /*inverse=*/true, &scratch);
  out.resize(nfft);
  for (std::size_t i = 0; i < nfft; ++i) out[i] = full[i].real();
}

std::vector<float> InverseRealFft(std::span<const Cf> half_spectrum,
                                  std::size_t nfft) {
  FftScratch scratch;
  std::vector<float> out;
  InverseRealFft(half_spectrum, *GetFftPlan(nfft), out, scratch);
  return out;
}

namespace detail {

void FftUnplanned(std::vector<Cf>& data, bool inverse) {
  if (data.empty()) return;
  if (IsPowerOfTwo(data.size())) {
    Radix2(data, inverse);
  } else {
    Bluestein(data, inverse);
  }
}

}  // namespace detail

}  // namespace nec::dsp
