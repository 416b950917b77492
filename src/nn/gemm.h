// Single-precision matrix multiply kernels backing Conv2D (via im2col) and
// Linear layers.
//
// The kernels are cache-blocked (MC/KC/NC tiling, register-blocked inner
// loops) and tuned for auto-vectorization (contiguous inner loops,
// restrict-qualified pointers). Every call is deterministic: each output
// element accumulates its k-products in ascending k order, so results are
// reproducible run-to-run — the property
// the nec::runtime bit-exactness audit depends on.
#pragma once

#include <cstddef>

namespace nec::nn {

/// C(M,N) = alpha * A(M,K) * B(K,N) + beta * C. Row-major.
void GemmNN(const float* a, const float* b, float* c, std::size_t m,
            std::size_t n, std::size_t k, float alpha = 1.0f,
            float beta = 0.0f);

/// C(M,N) = alpha * A(M,K) * B(N,K)^T + beta * C. Row-major (B stored N×K).
void GemmNT(const float* a, const float* b, float* c, std::size_t m,
            std::size_t n, std::size_t k, float alpha = 1.0f,
            float beta = 0.0f);

/// C(M,N) = alpha * A(K,M)^T * B(K,N) + beta * C. Row-major (A stored K×M).
void GemmTN(const float* a, const float* b, float* c, std::size_t m,
            std::size_t n, std::size_t k, float alpha = 1.0f,
            float beta = 0.0f);

}  // namespace nec::nn
