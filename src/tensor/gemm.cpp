#include "tensor/gemm.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/error.h"

#if !defined(__GNUC__)
#error "tensor/gemm.cpp needs the GCC/Clang vector extensions"
#endif

#if defined(__x86_64__) || defined(__i386__)
#define SS_GEMM_HAS_AVX2_BUILD 1
#endif

namespace ss::ops::gemm {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw ShapeError(msg);
}

// Micro-tile: kMr rows of C by kNv vectors, held in registers for the whole
// k loop.  6 x 2 = 12 accumulators plus 2 B vectors, a broadcast A value and
// a product fill the 16 vector registers of SSE2 and AVX2 without spilling.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNv = 2;

// W-lane float vector.  Spelled per width: GCC drops a vector_size attribute
// that depends on a template parameter of an alias template.
template <std::size_t W>
struct VecOf;
template <>
struct VecOf<4> {
  typedef float type __attribute__((vector_size(16)));
};
template <>
struct VecOf<8> {
  typedef float type __attribute__((vector_size(32)));
};
template <std::size_t W>
using Vec = typename VecOf<W>::type;

// Left operand read through strides: element (i, p) is at ptr[i*row + p*col].
// row = k, col = 1 for A(m,k); row = 1, col = m for A stored transposed (k,m).
struct Lhs {
  const float* ptr;
  std::size_t row;
  std::size_t col;
};

// C(R, NV*W) = A(R, k) * B(k, NV*W).  B rows are ldb apart and hold NV*W
// readable floats each.  Each accumulator lane starts at +0 and adds one
// product per p in ascending order; the product is its own statement so no
// compiler contracts it into an FMA.
template <std::size_t W, std::size_t R, std::size_t NV>
[[gnu::always_inline]] inline void tile(Lhs a, const float* b, std::size_t ldb, std::size_t k,
                                        float* c, std::size_t ldc) {
  Vec<W> acc[R][NV] = {};
  for (std::size_t p = 0; p < k; ++p) {
    Vec<W> bv[NV];
    for (std::size_t v = 0; v < NV; ++v) std::memcpy(&bv[v], b + p * ldb + v * W, sizeof bv[v]);
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a.ptr[r * a.row + p * a.col];
      for (std::size_t v = 0; v < NV; ++v) {
        const Vec<W> prod = av * bv[v];
        acc[r][v] += prod;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(c + r * ldc + v * W, &acc[r][v], sizeof acc[r][v]);
}

// R rows of one column panel of C, `cols` <= NV*W wide.  A narrower panel
// goes through a stack tile so the kernel always stores whole vectors.
template <std::size_t W, std::size_t R, std::size_t NV>
[[gnu::always_inline]] inline void rows(Lhs a, const float* b, std::size_t ldb, std::size_t k,
                                        float* c, std::size_t ldc, std::size_t cols) {
  constexpr std::size_t kCols = NV * W;
  if (cols == kCols) return tile<W, R, NV>(a, b, ldb, k, c, ldc);
  float part[R * kCols];
  tile<W, R, NV>(a, b, ldb, k, part, kCols);
  for (std::size_t r = 0; r < R; ++r)
    std::memcpy(c + r * ldc, part + r * kCols, cols * sizeof(float));
}

// One column panel of C across all m rows: full kMr-row tiles, then one
// shorter tile for the m % kMr leftover rows.
template <std::size_t W, std::size_t NV>
[[gnu::always_inline]] inline void panel(Lhs a, std::size_t m, const float* b, std::size_t ldb,
                                         std::size_t k, float* c, std::size_t ldc,
                                         std::size_t cols) {
  std::size_t i = 0;
  for (; i + kMr <= m; i += kMr)
    rows<W, kMr, NV>({a.ptr + i * a.row, a.row, a.col}, b, ldb, k, c + i * ldc, ldc, cols);
  const Lhs rest{a.ptr + i * a.row, a.row, a.col};
  switch (m - i) {
    case 5: rows<W, 5, NV>(rest, b, ldb, k, c + i * ldc, ldc, cols); break;
    case 4: rows<W, 4, NV>(rest, b, ldb, k, c + i * ldc, ldc, cols); break;
    case 3: rows<W, 3, NV>(rest, b, ldb, k, c + i * ldc, ldc, cols); break;
    case 2: rows<W, 2, NV>(rest, b, ldb, k, c + i * ldc, ldc, cols); break;
    case 1: rows<W, 1, NV>(rest, b, ldb, k, c + i * ldc, ldc, cols); break;
    default: break;
  }
}

// Scratch reused across calls on one thread: the n % W tail columns of B,
// zero-padded to a full vector, and matmul_nt's packed B^T.
std::vector<float>& tail_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}

std::vector<float>& transpose_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}

// C(m,n) = A(m,k) * B(k,n), B row-major with n columns, C row-major (m,n).
// Column panels run outermost so one B panel stays cached across all rows.
template <std::size_t W>
[[gnu::always_inline]] inline void gemm(Lhs a, const float* b, float* c, std::size_t m,
                                        std::size_t n, std::size_t k) {
  constexpr std::size_t kWide = kNv * W;
  std::size_t j = 0;
  for (; j + kWide <= n; j += kWide) panel<W, kNv>(a, m, b + j, n, k, c + j, n, kWide);
  for (; j + W <= n; j += W) panel<W, 1>(a, m, b + j, n, k, c + j, n, W);
  if (j == n) return;
  // Tail narrower than one vector: copy its columns into a W-wide panel whose
  // unused lanes are zero, and store only the real columns.
  const std::size_t tail = n - j;
  std::vector<float>& pad = tail_scratch();
  pad.assign(k * W, 0.0f);
  for (std::size_t p = 0; p < k; ++p)
    std::memcpy(pad.data() + p * W, b + p * n + j, tail * sizeof(float));
  panel<W, 1>(a, m, pad.data(), W, k, c + j, n, tail);
}

void gemm4(Lhs a, const float* b, float* c, std::size_t m, std::size_t n, std::size_t k) {
  gemm<4>(a, b, c, m, n, k);
}

#ifdef SS_GEMM_HAS_AVX2_BUILD
// AVX2 only, never FMA: a fused multiply-add rounds once and would change
// the bits of every sum.
__attribute__((target("avx2"))) void gemm8(Lhs a, const float* b, float* c, std::size_t m,
                                           std::size_t n, std::size_t k) {
  gemm<8>(a, b, c, m, n, k);
}
#endif

void run(Width width, Lhs a, const float* b, float* c, std::size_t m, std::size_t n,
         std::size_t k) {
  if (width == Width::k8 && !avx2_available())
    throw ConfigError("gemm: the 8-wide kernel needs an AVX2 CPU");
  // Empty operands may have null data; the kernels never offset those.
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill_n(c, m * n, 0.0f);
    return;
  }
  if (width == Width::k4) return gemm4(a, b, c, m, n, k);
#ifdef SS_GEMM_HAS_AVX2_BUILD
  gemm8(a, b, c, m, n, k);
#endif
}

}  // namespace

bool avx2_available() noexcept {
#ifdef SS_GEMM_HAS_AVX2_BUILD
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

Width native_width() noexcept { return avx2_available() ? Width::k8 : Width::k4; }

void matmul(Width width, const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul: rank-2 tensors required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n, "matmul: shape mismatch");
  run(width, {a.data(), k, 1}, b.data(), c.data(), m, n, k);
}

void matmul_tn(Width width, const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul_tn: rank-2 tensors required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n, "matmul_tn: shape mismatch");
  run(width, {a.data(), 1, m}, b.data(), c.data(), m, n, k);
}

void matmul_nt(Width width, const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul_nt: rank-2 tensors required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k && c.dim(0) == m && c.dim(1) == n, "matmul_nt: shape mismatch");
  // Pack B(n,k) as B^T(k,n) so the nn kernel streams its rows.  Square
  // blocks keep both the strided reads and the strided writes in cache.
  constexpr std::size_t kBlock = 16;
  std::vector<float>& bt = transpose_scratch();
  bt.resize(k * n);
  const float* pb = b.data();
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock)
    for (std::size_t p0 = 0; p0 < k; p0 += kBlock)
      for (std::size_t j = j0; j < std::min(j0 + kBlock, n); ++j)
        for (std::size_t p = p0; p < std::min(p0 + kBlock, k); ++p) bt[p * n + j] = pb[j * k + p];
  run(width, {a.data(), k, 1}, bt.data(), c.data(), m, n, k);
}

}  // namespace ss::ops::gemm
