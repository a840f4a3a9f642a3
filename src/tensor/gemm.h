// Register-blocked GEMM kernels behind ops::matmul, matmul_tn and matmul_nt.
//
// Internal header.  Library code calls the ops:: entry points, which run the
// widest kernel this CPU supports; tests include this header to run each
// width directly against the reference loops.
//
// Every width computes each element of C as 0.0f plus the a*b products added
// one at a time in ascending k order, with the multiply and the add kept as
// separate roundings, so all widths give bit-identical results (see ops.h).
#pragma once

#include "tensor/tensor.h"

namespace ss::ops::gemm {

/// Lanes per vector register of a kernel instantiation.
enum class Width : int {
  k4 = 4,  ///< SSE2 / NEON; runs everywhere.
  k8 = 8,  ///< AVX2 without FMA; x86 CPUs that report avx2 only.
};

/// True when this CPU can run the Width::k8 kernel.
[[nodiscard]] bool avx2_available() noexcept;

/// The width ops:: uses: k8 when avx2_available(), else k4.  Decided once.
[[nodiscard]] Width native_width() noexcept;

/// ops::matmul / matmul_tn / matmul_nt at an explicit width (same shapes,
/// same errors).  Throws ConfigError for Width::k8 without AVX2.
void matmul(Width width, const Tensor& a, const Tensor& b, Tensor& c);
void matmul_tn(Width width, const Tensor& a, const Tensor& b, Tensor& c);
void matmul_nt(Width width, const Tensor& a, const Tensor& b, Tensor& c);

}  // namespace ss::ops::gemm
