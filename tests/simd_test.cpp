// Property tests for the SIMD kernel layer (tensor/simd.hpp and its users):
// every vectorized kernel is compared against a naive serial reference —
// bitwise for packed/popcount paths, tolerance-bounded for float tiles —
// across odd shapes (n not a multiple of the vector width, tail words,
// m smaller than the tile height), plus thread-count-invariance checks for
// the kernels parallelized in this layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "hd/classifier.hpp"
#include "hd/hypervector.hpp"
#include "hd/projection.hpp"
#include "tensor/epilogue.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nshd {
namespace {

std::vector<float> random_vec(std::int64_t n, util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

// Naive double-precision references: one scalar accumulator, canonical loop
// order.  Tolerances scale with sqrt(k) to cover f32 accumulation drift.
void ref_gemm(const float* a, const float* b, double* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        s += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = s;
    }
}

float tol_for(std::int64_t k) { return 1e-4f * std::sqrt(static_cast<float>(k)) + 1e-4f; }

struct GemmShape {
  std::int64_t m, k, n;
};

// Odd shapes on purpose: m below the 4-row tile, n off the vector width and
// off the panel width, k with scalar tails, plus a few square sizes.
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},    {3, 5, 2},    {4, 8, 16},
    {5, 16, 8},  {7, 17, 9},   {6, 31, 1},   {16, 64, 32}, {17, 63, 33},
    {3, 129, 31}, {33, 100, 2}, {8, 300, 3},  {12, 256, 40}, {20, 41, 19},
};

TEST(SimdGemm, MatchesNaiveReferenceOddShapes) {
  util::Rng rng(11);
  for (const auto& s : kShapes) {
    const std::vector<float> a = random_vec(s.m * s.k, rng);
    const std::vector<float> b = random_vec(s.k * s.n, rng);
    std::vector<double> ref(static_cast<std::size_t>(s.m * s.n));
    ref_gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
    tensor::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], ref[i], tol_for(s.k)) << "shape " << s.m << "x" << s.k
                                              << "x" << s.n << " at " << i;
  }
}

TEST(SimdGemm, AccumulatePreservesExistingC) {
  util::Rng rng(12);
  for (const auto& s : kShapes) {
    const std::vector<float> a = random_vec(s.m * s.k, rng);
    const std::vector<float> b = random_vec(s.k * s.n, rng);
    std::vector<float> c0 = random_vec(s.m * s.n, rng);
    std::vector<double> ref(static_cast<std::size_t>(s.m * s.n));
    ref_gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    std::vector<float> c = c0;
    tensor::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n, /*accumulate=*/true);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], ref[i] + c0[i], tol_for(s.k) + 1e-5f);
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SimdGemmSamples, BitwiseEqualToOneGemmPerSample) {
  // Pointwise-conv shapes: A = weights [M, K], each sample's B = [K, H*W].
  // Odd M and K, planes from 1x1 to 32x32, sample counts that straddle
  // panel boundaries in every way.
  util::Rng rng(31);
  for (std::int64_t hw : {1, 4, 16, 64, 1024}) {
    for (std::int64_t samples : {1, 3, 7}) {
      const std::int64_t m = 13, k = 37;
      const auto a = random_vec(m * k, rng);
      // Samples sit at a stride wider than their payload, as in NCHW
      // batches where B is one view into a bigger tensor.
      const std::int64_t b_stride = k * hw + 5, c_stride = m * hw + 3;
      const auto b = random_vec(samples * b_stride, rng);
      std::vector<float> batched(static_cast<std::size_t>(samples * c_stride), -7.0f);
      std::vector<float> single = batched;
      tensor::gemm_samples(a.data(), b.data(), b_stride, batched.data(), c_stride,
                           m, k, hw, samples);
      for (std::int64_t s = 0; s < samples; ++s)
        tensor::gemm(a.data(), b.data() + s * b_stride, single.data() + s * c_stride,
                     m, k, hw);
      EXPECT_TRUE(same_bits(batched, single)) << "hw=" << hw << " samples=" << samples;
    }
  }
}

TEST(SimdGemmSamples, EpilogueMatchesGemmThenPerChannelPass) {
  util::Rng rng(32);
  const std::int64_t m = 11, k = 19;
  const auto bias = random_vec(m, rng);
  const auto mean = random_vec(m, rng);
  const auto gamma = random_vec(m, rng);
  const auto beta = random_vec(m, rng);
  std::vector<float> inv_std(static_cast<std::size_t>(m));
  for (auto& v : inv_std) v = rng.uniform(0.5f, 2.0f);
  for (const tensor::Activation act :
       {tensor::Activation::kReLU, tensor::Activation::kReLU6,
        tensor::Activation::kSiLU, tensor::Activation::kSigmoid}) {
    tensor::Epilogue e;
    e.bias = bias.data();
    e.bn_mean = mean.data();
    e.bn_inv_std = inv_std.data();
    e.bn_gamma = gamma.data();
    e.bn_beta = beta.data();
    e.has_act = true;
    e.act = act;
    for (std::int64_t hw : {1, 4, 16, 64}) {
      const std::int64_t samples = 5;
      const auto a = random_vec(m * k, rng);
      const auto b = random_vec(samples * k * hw, rng);
      std::vector<float> fused(static_cast<std::size_t>(samples * m * hw));
      std::vector<float> split = fused;
      tensor::gemm_samples(a.data(), b.data(), k * hw, fused.data(), m * hw, m, k,
                           hw, samples, &e);
      for (std::int64_t s = 0; s < samples; ++s) {
        float* c = split.data() + s * m * hw;
        tensor::gemm(a.data(), b.data() + s * k * hw, c, m, k, hw);
        for (std::int64_t i = 0; i < m; ++i)
          tensor::epilogue_run(e, i, c + i * hw, c + i * hw, hw);
      }
      EXPECT_TRUE(same_bits(fused, split))
          << "act=" << static_cast<int>(act) << " hw=" << hw;
    }
  }
}

TEST(SimdClamp, ReluAndRelu6ReproduceActivateBitwise) {
  // maxps/minps return their second operand on NaN and on two zeros, so
  // operand order decides the NaN and -0 cases; compare every lane with
  // the scalar activate() definition, bit for bit.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> xs = {nan,  -nan, -0.0f, 0.0f, 6.0f,  6.5f,   1e30f,
                                 inf,  -inf, -3.0f, 2.5f, 5.99f, denorm, -denorm};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    float in[tensor::simd::kWidth];
    for (int l = 0; l < tensor::simd::kWidth; ++l)
      in[l] = xs[(i + static_cast<std::size_t>(l)) % xs.size()];
    float relu[tensor::simd::kWidth], relu6[tensor::simd::kWidth];
    tensor::simd::vstore(relu, tensor::simd::vrelu(tensor::simd::vload(in)));
    tensor::simd::vstore(relu6, tensor::simd::vrelu6(tensor::simd::vload(in)));
    for (int l = 0; l < tensor::simd::kWidth; ++l) {
      const float want = tensor::activate(tensor::Activation::kReLU, in[l]);
      const float want6 = tensor::activate(tensor::Activation::kReLU6, in[l]);
      EXPECT_EQ(std::memcmp(&relu[l], &want, sizeof(float)), 0) << "relu(" << in[l] << ")";
      EXPECT_EQ(std::memcmp(&relu6[l], &want6, sizeof(float)), 0) << "relu6(" << in[l] << ")";
    }
  }
}

TEST(SimdGemmBt, MatchesNaiveReferenceOddShapes) {
  util::Rng rng(13);
  for (const auto& s : kShapes) {
    const std::vector<float> a = random_vec(s.m * s.k, rng);
    const std::vector<float> bt = random_vec(s.n * s.k, rng);  // [N, K]
    // Reference via explicit transpose into row-major [K, N].
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    for (std::int64_t j = 0; j < s.n; ++j)
      for (std::int64_t p = 0; p < s.k; ++p) b[p * s.n + j] = bt[j * s.k + p];
    std::vector<double> ref(static_cast<std::size_t>(s.m * s.n));
    ref_gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
    tensor::gemm_bt(a.data(), bt.data(), c.data(), s.m, s.k, s.n);
    for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], ref[i], tol_for(s.k));
    // Accumulate path on the same shape.
    std::vector<float> c1 = c;
    tensor::gemm_bt(a.data(), bt.data(), c1.data(), s.m, s.k, s.n, /*accumulate=*/true);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c1[i], 2.0 * ref[i], 2.0f * tol_for(s.k));
  }
}

TEST(SimdGemmAt, MatchesNaiveReferenceOddShapes) {
  util::Rng rng(14);
  for (const auto& s : kShapes) {
    const std::vector<float> at = random_vec(s.k * s.m, rng);  // [K, M]
    const std::vector<float> b = random_vec(s.k * s.n, rng);
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    for (std::int64_t p = 0; p < s.k; ++p)
      for (std::int64_t i = 0; i < s.m; ++i) a[i * s.k + p] = at[p * s.m + i];
    std::vector<double> ref(static_cast<std::size_t>(s.m * s.n));
    ref_gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
    tensor::gemm_at(at.data(), b.data(), c.data(), s.m, s.k, s.n);
    for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], ref[i], tol_for(s.k));
  }
}

TEST(SimdGemv, MatchesNaiveReferenceOddShapes) {
  util::Rng rng(15);
  for (const std::int64_t m : {1LL, 3LL, 16LL, 17LL, 130LL}) {
    for (const std::int64_t n : {1LL, 5LL, 31LL, 64LL, 257LL, 1000LL}) {
      const std::vector<float> a = random_vec(m * n, rng);
      const std::vector<float> x = random_vec(n, rng);
      std::vector<float> y(static_cast<std::size_t>(m));
      tensor::gemv(a.data(), x.data(), y.data(), m, n);
      for (std::int64_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::int64_t j = 0; j < n; ++j)
          s += static_cast<double>(a[i * n + j]) * x[j];
        ASSERT_NEAR(y[i], s, tol_for(n)) << m << "x" << n << " row " << i;
      }
    }
  }
}

TEST(SimdGemvT, MatchesNaiveReferenceOddShapes) {
  util::Rng rng(16);
  for (const std::int64_t m : {1LL, 7LL, 64LL, 333LL}) {
    for (const std::int64_t n : {1LL, 3LL, 17LL, 256LL, 301LL}) {
      const std::vector<float> a = random_vec(m * n, rng);
      const std::vector<float> x = random_vec(m, rng);
      std::vector<float> y(static_cast<std::size_t>(n));
      tensor::gemv_t(a.data(), x.data(), y.data(), m, n);
      for (std::int64_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::int64_t i = 0; i < m; ++i)
          s += static_cast<double>(a[i * n + j]) * x[i];
        ASSERT_NEAR(y[j], s, tol_for(m)) << m << "x" << n << " col " << j;
      }
    }
  }
}

TEST(SimdDot, MatchesNaiveReferenceOddLengths) {
  util::Rng rng(17);
  for (const std::int64_t n : {1LL, 2LL, 3LL, 4LL, 7LL, 8LL, 15LL, 16LL, 17LL,
                               31LL, 33LL, 63LL, 64LL, 65LL, 127LL, 1000LL}) {
    const std::vector<float> a = random_vec(n, rng);
    const std::vector<float> b = random_vec(n, rng);
    double s = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      s += static_cast<double>(a[i]) * b[i];
    ASSERT_NEAR(tensor::dot(a.data(), b.data(), n), s, tol_for(n)) << "n=" << n;
  }
}

TEST(SimdSignedSum, MatchesScalarBitWalkBitwise) {
  // The signed-accumulation kernel against a scalar loop with identical
  // structure is a float comparison; against the packed bits themselves the
  // selection must be exact, so check on integer-valued inputs where f32
  // arithmetic is exact and the match is bitwise.
  util::Rng rng(18);
  for (const std::int64_t dim : {1LL, 31LL, 63LL, 64LL, 65LL, 100LL, 127LL,
                                 128LL, 129LL, 200LL, 1000LL}) {
    hd::Hypervector h = hd::Hypervector::random(dim, rng);
    std::vector<float> m(static_cast<std::size_t>(dim));
    for (auto& x : m) x = static_cast<float>(static_cast<int>(rng.uniform(-8.0f, 8.0f)));
    std::int64_t ref = 0;
    for (std::int64_t i = 0; i < dim; ++i)
      ref += static_cast<std::int64_t>(m[static_cast<std::size_t>(i)]) *
             (h.get(i) > 0.0f ? 1 : -1);
    const float got = tensor::simd::signed_sum(m.data(), h.words(), dim);
    ASSERT_EQ(got, static_cast<float>(ref)) << "dim=" << dim;
  }
}

TEST(SimdHdDotAxpy, MatchUnpackedReferenceAcrossTailWords) {
  util::Rng rng(19);
  for (const std::int64_t dim : {1LL, 5LL, 63LL, 64LL, 65LL, 127LL, 129LL, 500LL}) {
    hd::Hypervector h = hd::Hypervector::random(dim, rng);
    std::vector<float> m = random_vec(dim, rng);
    double ref = 0.0;
    for (std::int64_t i = 0; i < dim; ++i)
      ref += static_cast<double>(m[static_cast<std::size_t>(i)]) * h.get(i);
    EXPECT_NEAR(hd::dot(m.data(), h), ref, 1e-3) << "dim=" << dim;

    std::vector<float> updated = m;
    hd::axpy(updated.data(), 0.25f, h);
    for (std::int64_t i = 0; i < dim; ++i) {
      EXPECT_FLOAT_EQ(updated[static_cast<std::size_t>(i)],
                      m[static_cast<std::size_t>(i)] + 0.25f * h.get(i));
    }
  }
}

TEST(SimdHamming, MatchesPerBitReferenceExactly) {
  util::Rng rng(20);
  for (const std::int64_t dim : {1LL, 5LL, 63LL, 64LL, 65LL, 255LL, 256LL,
                                 257LL, 1000LL}) {
    hd::Hypervector a = hd::Hypervector::random(dim, rng);
    hd::Hypervector b = hd::Hypervector::random(dim, rng);
    std::int64_t ref = 0;
    for (std::int64_t i = 0; i < dim; ++i)
      if (a.get(i) != b.get(i)) ++ref;
    ASSERT_EQ(a.hamming(b), ref) << "dim=" << dim;
  }
}

TEST(SimdProjection, ProjectAndDecodeMatchExplicitMatrixOddFeatures) {
  util::Rng rng(21);
  for (const std::int64_t features : {1LL, 63LL, 64LL, 65LL, 100LL, 129LL}) {
    const std::int64_t dim = 37;
    util::Rng prng(100 + features);
    hd::RandomProjection proj(dim, features, prng);
    const std::vector<float> v = random_vec(features, rng);
    tensor::Tensor z = proj.project(v.data());
    for (std::int64_t r = 0; r < dim; ++r) {
      double s = 0.0;
      for (std::int64_t i = 0; i < features; ++i)
        s += static_cast<double>(proj.element(r, i)) * v[static_cast<std::size_t>(i)];
      ASSERT_NEAR(z[r], s, 1e-3) << "features=" << features << " row " << r;
    }
    tensor::Tensor g(tensor::Shape{dim});
    for (std::int64_t r = 0; r < dim; ++r) g[r] = rng.normal();
    tensor::Tensor back = proj.decode(g);
    for (std::int64_t i = 0; i < features; ++i) {
      double s = 0.0;
      for (std::int64_t r = 0; r < dim; ++r)
        s += static_cast<double>(proj.element(r, i)) * g[r];
      ASSERT_NEAR(back[i], s, 1e-3) << "features=" << features << " col " << i;
    }
  }
}

TEST(SimdBatchedInference, PredictAllMatchesPerSamplePredict) {
  util::Rng rng(22);
  const std::int64_t dim = 640, classes = 7, n = 83;  // n off the block size
  hd::HdClassifier clf(classes, dim);
  for (std::int64_t c = 0; c < classes; ++c)
    for (std::int64_t d = 0; d < dim; ++d) clf.class_vector(c)[d] = rng.normal();
  std::vector<hd::Hypervector> queries;
  for (std::int64_t i = 0; i < n; ++i)
    queries.push_back(hd::Hypervector::random(dim, rng));
  for (const auto metric : {hd::Similarity::kCosine, hd::Similarity::kDot}) {
    const std::vector<std::int64_t> batched = clf.predict_all(queries, metric);
    const tensor::Tensor sims_all = clf.similarities_all(queries, metric);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[static_cast<std::size_t>(i)],
                clf.predict(queries[static_cast<std::size_t>(i)], metric));
      const std::vector<float> sims =
          clf.similarities(queries[static_cast<std::size_t>(i)], metric);
      for (std::int64_t c = 0; c < classes; ++c)
        EXPECT_NEAR(sims_all[i * classes + c], sims[static_cast<std::size_t>(c)], 1e-4f);
    }
  }
}

TEST(SimdBatchedInference, QuantizedEvaluateMatchesPopcountReference) {
  util::Rng rng(23);
  const std::int64_t dim = 1000, classes = 5, n = 140;
  hd::HdClassifier clf(classes, dim);
  for (std::int64_t c = 0; c < classes; ++c)
    for (std::int64_t d = 0; d < dim; ++d) clf.class_vector(c)[d] = rng.normal();
  std::vector<hd::Hypervector> queries;
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < n; ++i) {
    queries.push_back(hd::Hypervector::random(dim, rng));
    labels.push_back(i % classes);
  }
  const std::vector<hd::Hypervector> quantized = clf.quantized_classes();
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (hd::HdClassifier::predict_quantized(quantized, queries[static_cast<std::size_t>(i)]) ==
        labels[static_cast<std::size_t>(i)])
      ++correct;
  const double ref = static_cast<double>(correct) / static_cast<double>(n);
  // The float gemm_bt path computes +/-1 dot products exactly, so the
  // accuracy must match the popcount path to the last bit.
  EXPECT_EQ(clf.evaluate_quantized(queries, labels), ref);
}

TEST(SimdThreadInvariance, NewKernelsBitwiseAcrossThreadCounts) {
  util::Rng rng(24);
  const std::int64_t m = 130, n = 257;
  const std::vector<float> a = random_vec(m * n, rng);
  const std::vector<float> x = random_vec(n, rng);
  const std::vector<float> xt = random_vec(m, rng);

  const std::int64_t dim = 1000, classes = 6, ns = 70;
  hd::HdClassifier clf(classes, dim);
  for (std::int64_t c = 0; c < classes; ++c)
    for (std::int64_t d = 0; d < dim; ++d) clf.class_vector(c)[d] = rng.normal();
  std::vector<hd::Hypervector> queries;
  for (std::int64_t i = 0; i < ns; ++i)
    queries.push_back(hd::Hypervector::random(dim, rng));

  std::vector<float> y1, yt1, sims1;
  std::vector<std::int64_t> pred1;
  for (const int threads : {1, 8}) {
    util::set_thread_count(threads);
    std::vector<float> y(static_cast<std::size_t>(m)), yt(static_cast<std::size_t>(n));
    tensor::gemv(a.data(), x.data(), y.data(), m, n);
    tensor::gemv_t(a.data(), xt.data(), yt.data(), m, n);
    const tensor::Tensor sims = clf.similarities_all(queries, hd::Similarity::kCosine);
    const std::vector<std::int64_t> pred = clf.predict_all(queries, hd::Similarity::kCosine);
    std::vector<float> sims_v(sims.data(), sims.data() + sims.numel());
    if (threads == 1) {
      y1 = y;
      yt1 = yt;
      sims1 = sims_v;
      pred1 = pred;
    } else {
      ASSERT_EQ(y, y1);
      ASSERT_EQ(yt, yt1);
      ASSERT_EQ(sims_v, sims1);
      ASSERT_EQ(pred, pred1);
    }
  }
  util::set_thread_count(0);
}

TEST(SimdLayer, ReportsFixedWidthForThisBinary) {
  EXPECT_GT(tensor::simd::kWidth, 0);
  EXPECT_EQ(64 % tensor::simd::kWidth, 0);
  SUCCEED() << "ISA: " << tensor::simd::kIsaName << " width " << tensor::simd::kWidth;
}

}  // namespace
}  // namespace nshd
