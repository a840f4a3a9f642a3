#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/gemm.h"

namespace ss {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian(0.0, scale));
  return t;
}

/// Naive reference matmul.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at2(i, kk) * b.at2(kk, j);
      c.at2(i, j) = acc;
    }
  return c;
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(1);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor b = random_tensor({7, 3}, rng);
  Tensor c({5, 3});
  ops::matmul(a, b, c);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulTnIsTransposedA) {
  Rng rng(2);
  const Tensor at = random_tensor({7, 5}, rng);  // A^T stored (k, m)
  const Tensor b = random_tensor({7, 3}, rng);
  Tensor c({5, 3});
  ops::matmul_tn(at, b, c);
  // Build A = at^T and compare with naive.
  Tensor a({5, 7});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j) a.at2(i, j) = at.at2(j, i);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulNtIsTransposedB) {
  Rng rng(3);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor bt = random_tensor({3, 7}, rng);  // B^T stored (n, k)
  Tensor c({5, 3});
  ops::matmul_nt(a, bt, c);
  Tensor b({7, 3});
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 3; ++j) b.at2(i, j) = bt.at2(j, i);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 2}), c({2, 2});
  EXPECT_THROW(ops::matmul(a, b, c), ShapeError);
}

// The loops the GEMM kernels replaced, kept verbatim as the bitwise oracle:
// every output element is 0.0f plus its a*b products added one at a time in
// ascending k order.  (The ikj loops skip zero entries of A; with finite B
// that adds only +-0 to a sum that is never -0, so the bits are the same.)
void ref_matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c.fill(0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ref_matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  c.fill(0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ref_matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

enum class Fill { kGaussian, kReluSparse, kOnesNegZero };

Tensor filled(Shape shape, Fill fill, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    switch (fill) {
      case Fill::kGaussian: t[i] = static_cast<float>(rng.gaussian()); break;
      case Fill::kReluSparse: t[i] = std::max(0.0f, static_cast<float>(rng.gaussian())); break;
      case Fill::kOnesNegZero: t[i] = rng.bernoulli(0.3) ? -0.0f : 1.0f; break;
    }
  }
  return t;
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

std::vector<ops::gemm::Width> widths_to_test() {
  std::vector<ops::gemm::Width> widths = {ops::gemm::Width::k4};
  if (ops::gemm::avx2_available()) widths.push_back(ops::gemm::Width::k8);
  return widths;
}

struct Dims {
  std::size_t m, k, n;
};

// Every tile/tail combination: 1..17 covers each remainder of the 6-row tile
// and of 4-, 8- and 16-float column panels; 31..96 add multi-tile sizes.
std::vector<Dims> oracle_shapes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= 17; ++s) sizes.push_back(s);
  for (const std::size_t s : {31u, 32u, 33u, 64u, 96u}) sizes.push_back(s);
  std::vector<Dims> shapes;
  for (const std::size_t m : sizes)
    for (const std::size_t k : sizes)
      for (const std::size_t n : sizes) shapes.push_back({m, k, n});
  shapes.push_back({8, 512, 256});
  return shapes;
}

using GemmFn = void (*)(ops::gemm::Width, const Tensor&, const Tensor&, Tensor&);
using RefFn = void (*)(const Tensor&, const Tensor&, Tensor&);

// Runs one variant over every oracle shape, input kind and width; `a_shape`
// and `b_shape` give the stored operand shapes for (m, k, n).
void expect_bitwise_oracle(const char* name, GemmFn kernel, RefFn reference,
                           Shape (*a_shape)(const Dims&), Shape (*b_shape)(const Dims&)) {
  Rng rng(41);
  std::size_t mismatches = 0;
  for (const Fill fill : {Fill::kGaussian, Fill::kReluSparse, Fill::kOnesNegZero}) {
    for (const Dims& d : oracle_shapes()) {
      const Tensor a = filled(a_shape(d), fill, rng);
      const Tensor b = filled(b_shape(d), fill, rng);
      Tensor want({d.m, d.n});
      reference(a, b, want);
      for (const ops::gemm::Width w : widths_to_test()) {
        Tensor got({d.m, d.n}, 7.0f);  // stale contents must be overwritten
        kernel(w, a, b, got);
        if (!same_bits(got, want) && ++mismatches <= 5)
          ADD_FAILURE() << name << " width " << static_cast<int>(w) << " fill "
                        << static_cast<int>(fill) << " m=" << d.m << " k=" << d.k
                        << " n=" << d.n << " differs from the reference bits";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << name;
}

TEST(Gemm, MatmulBitIdenticalToReference) {
  expect_bitwise_oracle(
      "matmul", ops::gemm::matmul, ref_matmul, [](const Dims& d) { return Shape{d.m, d.k}; },
      [](const Dims& d) { return Shape{d.k, d.n}; });
}

TEST(Gemm, MatmulTnBitIdenticalToReference) {
  expect_bitwise_oracle(
      "matmul_tn", ops::gemm::matmul_tn, ref_matmul_tn,
      [](const Dims& d) { return Shape{d.k, d.m}; }, [](const Dims& d) { return Shape{d.k, d.n}; });
}

TEST(Gemm, MatmulNtBitIdenticalToReference) {
  expect_bitwise_oracle(
      "matmul_nt", ops::gemm::matmul_nt, ref_matmul_nt,
      [](const Dims& d) { return Shape{d.m, d.k}; }, [](const Dims& d) { return Shape{d.n, d.k}; });
}

TEST(Gemm, OpsEntryPointsRunTheNativeWidth) {
  EXPECT_EQ(ops::gemm::native_width() == ops::gemm::Width::k8, ops::gemm::avx2_available());
  Rng rng(42);
  const Tensor a = filled({8, 512}, Fill::kGaussian, rng);
  const Tensor b = filled({512, 256}, Fill::kGaussian, rng);
  const Tensor bt = filled({256, 512}, Fill::kGaussian, rng);
  const Tensor at = filled({512, 8}, Fill::kGaussian, rng);
  Tensor got({8, 256}), want({8, 256});
  ops::matmul(a, b, got);
  ref_matmul(a, b, want);
  EXPECT_TRUE(same_bits(got, want));
  ops::matmul_tn(at, b, got);
  ref_matmul_tn(at, b, want);
  EXPECT_TRUE(same_bits(got, want));
  ops::matmul_nt(a, bt, got);
  ref_matmul_nt(a, bt, want);
  EXPECT_TRUE(same_bits(got, want));
}

TEST(Gemm, SignedZeroSumsStayPositive) {
  // A row of -0.0f times anything finite sums to +0.0f, as 0.0f + (-0.0f)
  // does in the reference loops.
  const Tensor a({2, 3}, -0.0f);
  const Tensor b({3, 5}, 1.0f);
  for (const ops::gemm::Width w : widths_to_test()) {
    Tensor c({2, 5}, -1.0f);
    ops::gemm::matmul(w, a, b, c);
    for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_FALSE(std::signbit(c[i]));
  }
}

TEST(Gemm, EmptyOperands) {
  for (const ops::gemm::Width w : widths_to_test()) {
    // k = 0: every element is the empty sum, +0.
    Tensor c({13, 9}, 5.0f);
    ops::gemm::matmul(w, Tensor({13, 0}), Tensor({0, 9}), c);
    for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
    c.fill(5.0f);
    ops::gemm::matmul_tn(w, Tensor({0, 13}), Tensor({0, 9}), c);
    for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
    c.fill(5.0f);
    ops::gemm::matmul_nt(w, Tensor({13, 0}), Tensor({9, 0}), c);
    for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
    // m = 0 or n = 0: nothing to write.
    Tensor none({0, 9});
    ops::gemm::matmul_tn(w, Tensor({5, 0}), Tensor({5, 9}), none);
    Tensor narrow({13, 0});
    ops::gemm::matmul(w, Tensor({13, 5}), Tensor({5, 0}), narrow);
  }
}

TEST(Gemm, EightWideNeedsAvx2) {
  if (ops::gemm::avx2_available()) GTEST_SKIP() << "CPU has AVX2";
  const Tensor a({2, 2}), b({2, 2});
  Tensor c({2, 2});
  EXPECT_THROW(ops::gemm::matmul(ops::gemm::Width::k8, a, b, c), ConfigError);
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> y = {1, 2, 3};
  const std::vector<float> x = {10, 20, 30};
  ops::add_inplace(y, x);
  EXPECT_EQ(y[2], 33.0f);
  ops::axpy(0.5f, x, y);
  EXPECT_EQ(y[0], 16.0f);
  ops::scale_inplace(y, 2.0f);
  EXPECT_EQ(y[0], 32.0f);
}

TEST(Ops, BiasAndSumRows) {
  Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor bias({3}, std::vector<float>{10, 20, 30});
  ops::add_bias_rows(x, bias);
  EXPECT_EQ(x.at2(1, 2), 36.0f);
  Tensor grad_b({3});
  ops::sum_rows(x, grad_b);
  EXPECT_EQ(grad_b[0], 25.0f);  // 11 + 14
  EXPECT_EQ(grad_b[2], 69.0f);  // 33 + 36
}

TEST(Ops, ReluForwardBackward) {
  Tensor x({1, 4}, std::vector<float>{-1, 0, 2, -3});
  Tensor y({1, 4});
  ops::relu_forward(x, y);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({1, 4}, std::vector<float>{1, 1, 1, 1});
  Tensor dx({1, 4});
  ops::relu_backward(x, dy, dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Ops, SoftmaxRowsSumToOneAndStable) {
  Tensor logits({2, 3}, std::vector<float>{1000.0f, 1000.0f, 1000.0f, 1.0f, 2.0f, 3.0f});
  Tensor probs({2, 3});
  ops::softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += probs.at2(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_NEAR(probs.at2(0, 0), 1.0f / 3.0f, 1e-5);
  EXPECT_GT(probs.at2(1, 2), probs.at2(1, 0));
}

TEST(Ops, CrossEntropyGradientMatchesNumeric) {
  // Numeric check of d(mean CE o softmax)/d logits.
  Rng rng(4);
  Tensor logits = random_tensor({3, 4}, rng);
  const std::vector<int> labels = {1, 3, 0};
  Tensor probs(logits.shape());
  ops::softmax_rows(logits, probs);
  Tensor grad(logits.shape());
  ops::softmax_xent_backward(probs, labels, grad);

  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    Tensor pp(logits.shape()), pm(logits.shape());
    ops::softmax_rows(lp, pp);
    ops::softmax_rows(lm, pm);
    const double num =
        (ops::cross_entropy_mean(pp, labels) - ops::cross_entropy_mean(pm, labels)) / (2 * eps);
    EXPECT_NEAR(grad[i], num, 5e-3);
  }
}

TEST(Ops, SoftmaxXentBackwardRejectsOutOfRangeLabel) {
  const Tensor probs({2, 3}, 1.0f / 3.0f);
  Tensor dlogits({2, 3});
  const std::vector<int> too_big = {0, 3};
  EXPECT_THROW(ops::softmax_xent_backward(probs, too_big, dlogits), ShapeError);
  const std::vector<int> negative = {-1, 0};
  EXPECT_THROW(ops::softmax_xent_backward(probs, negative, dlogits), ShapeError);
}

TEST(Ops, ArgmaxRows) {
  Tensor logits({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  std::vector<int> out(2);
  ops::argmax_rows(logits, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
}

TEST(Ops, DotAndNorm) {
  const std::vector<float> a = {3, 4};
  EXPECT_DOUBLE_EQ(ops::dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(ops::l2_norm(a), 5.0);
}

TEST(Ops, Im2ColCol2ImAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the two ops must be exact adjoints
  // for conv backward to be correct.
  Rng rng(5);
  const std::size_t c = 2, h = 5, w = 4, kh = 3, kw = 3, pad = 1;
  const std::size_t oh = h + 2 * pad - kh + 1, ow = w + 2 * pad - kw + 1;
  std::vector<float> x(c * h * w);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  Tensor cols({c * kh * kw, oh * ow});
  ops::im2col(x, c, h, w, kh, kw, pad, cols);

  Tensor y({c * kh * kw, oh * ow});
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = static_cast<float>(rng.gaussian());
  std::vector<float> xt(c * h * w);
  ops::col2im(y, c, h, w, kh, kw, pad, xt);

  const double lhs = ops::dot(cols.span(), y.span());
  const double rhs = ops::dot(std::span<const float>(x), std::span<const float>(xt));
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

}  // namespace
}  // namespace ss
