#include "nn/gemm.h"

#include <algorithm>

namespace nec::nn {
namespace {

// Cache-blocking parameters. A kMc x kKc panel of A (64 KiB) plus a
// kKc x kNc panel of B (256 KiB) stay resident in L2 while a kMc x kNc
// tile of C is updated; the inner loops stream contiguous rows so the
// compiler vectorizes them into FMA streams.
constexpr std::size_t kMc = 64;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 256;

inline void ScaleC(float* c, std::size_t count, float beta) {
  if (beta == 0.0f) {
    for (std::size_t i = 0; i < count; ++i) c[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < count; ++i) c[i] *= beta;
  }
}

}  // namespace

// Every kernel accumulates each C element's k-products in ascending k
// order regardless of tile position.

void GemmNN(const float* a, const float* b, float* c, std::size_t m,
            std::size_t n, std::size_t k, float alpha, float beta) {
  ScaleC(c, m * n, beta);
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mc = std::min(kMc, m - ic);
        for (std::size_t i = ic; i < ic + mc; ++i) {
          float* __restrict ci = c + i * n + jc;
          const float* ai = a + i * k + pc;
          // i-k-j micro-loop: the j loop runs over contiguous memory in
          // both B and C.
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const float av = alpha * ai[kk];
            const float* __restrict bk = b + (pc + kk) * n + jc;
            for (std::size_t j = 0; j < nc; ++j) ci[j] += av * bk[j];
          }
        }
      }
    }
  }
}

void GemmNT(const float* a, const float* b, float* c, std::size_t m,
            std::size_t n, std::size_t k, float alpha, float beta) {
  // Dot-product formulation: the k loop is contiguous in both A and B
  // rows. i/j tiling keeps a kMc x k panel of A and a kNc x k panel of B
  // hot across the tile; the 4-wide i unroll shares each B-row load across
  // four dot products (four independent accumulator chains for ILP).
  for (std::size_t ic = 0; ic < m; ic += kMc) {
    const std::size_t mc = std::min(kMc, m - ic);
    for (std::size_t jc = 0; jc < n; jc += kNc) {
      const std::size_t nc = std::min(kNc, n - jc);
      for (std::size_t j = jc; j < jc + nc; ++j) {
        const float* __restrict bj = b + j * k;
        std::size_t i = ic;
        for (; i + 4 <= ic + mc; i += 4) {
          const float* __restrict a0 = a + i * k;
          const float* __restrict a1 = a0 + k;
          const float* __restrict a2 = a1 + k;
          const float* __restrict a3 = a2 + k;
          float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float bv = bj[kk];
            s0 += a0[kk] * bv;
            s1 += a1[kk] * bv;
            s2 += a2[kk] * bv;
            s3 += a3[kk] * bv;
          }
          float* c0 = c + i * n + j;
          const float b0 = beta == 0.0f ? 0.0f : beta * *c0;
          *c0 = alpha * s0 + b0;
          float* c1 = c0 + n;
          const float b1 = beta == 0.0f ? 0.0f : beta * *c1;
          *c1 = alpha * s1 + b1;
          float* c2 = c1 + n;
          const float b2 = beta == 0.0f ? 0.0f : beta * *c2;
          *c2 = alpha * s2 + b2;
          float* c3 = c2 + n;
          const float b3 = beta == 0.0f ? 0.0f : beta * *c3;
          *c3 = alpha * s3 + b3;
        }
        for (; i < ic + mc; ++i) {
          const float* __restrict ai = a + i * k;
          float acc = 0.0f;
          for (std::size_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
          float* ci = c + i * n + j;
          *ci = alpha * acc + (beta == 0.0f ? 0.0f : beta * *ci);
        }
      }
    }
  }
}

void GemmTN(const float* a, const float* b, float* c, std::size_t m,
            std::size_t n, std::size_t k, float alpha, float beta) {
  // A is stored (K, M).
  ScaleC(c, m * n, beta);
  // Rank-1 update form, blocked so the kMc x kNc tile of C stays hot
  // across a kKc run of k instead of re-streaming all of C per k row.
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    for (std::size_t ic = 0; ic < m; ic += kMc) {
      const std::size_t mc = std::min(kMc, m - ic);
      for (std::size_t jc = 0; jc < n; jc += kNc) {
        const std::size_t nc = std::min(kNc, n - jc);
        for (std::size_t kk = pc; kk < pc + kc; ++kk) {
          const float* ak = a + kk * m;
          const float* __restrict bk = b + kk * n + jc;
          for (std::size_t i = ic; i < ic + mc; ++i) {
            const float av = alpha * ak[i];
            if (av == 0.0f) continue;
            float* __restrict ci = c + i * n + jc;
            for (std::size_t j = 0; j < nc; ++j) ci[j] += av * bk[j];
          }
        }
      }
    }
  }
}

}  // namespace nec::nn
