// Per-output-channel epilogue of the f32 inference kernels: conv bias, then
// eval batch-norm, then activation, applied to a finished accumulator.
//
// Conv2d and DepthwiseConv2d apply it to their accumulators before storing
// them, which is how Sequential fuses a following eval BatchNorm2d and
// ActivationLayer into the layer that produces their input.  The standalone
// BatchNorm2d and ActivationLayer run the same epilogue_run() over their
// input.  Every element, vector body or tail, goes through the one vector
// routine epilogue_apply(), so the fused and unfused paths are a single
// expression: bitwise equal on every ISA, including NSHD_NATIVE builds where
// GCC contracts a*b+c into an FMA.
//
// Each element keeps the operation sequence of the separate passes: its
// accumulator, then `+ bias`, then `gamma * ((x - mean) * inv_std) + beta`,
// then the activation.
#pragma once

#include <cmath>
#include <cstdint>

#include "tensor/simd.hpp"

namespace nshd::tensor {

enum class Activation { kReLU, kReLU6, kSiLU, kSigmoid };

/// Scalar activation: the definition every vector path reproduces, NaN and
/// -0 included (ReLU: NaN -> +0, -0 -> +0; ReLU6: NaN -> NaN, -0 -> -0).
inline float activate(Activation act, float x) {
  switch (act) {
    case Activation::kReLU: return x > 0.0f ? x : 0.0f;
    case Activation::kReLU6: return x < 0.0f ? 0.0f : (x > 6.0f ? 6.0f : x);
    case Activation::kSiLU: return x / (1.0f + std::exp(-x));
    case Activation::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
  }
  return 0.0f;
}

/// Channel-indexed epilogue terms; a null pointer skips its stage.
struct Epilogue {
  const float* bias = nullptr;  // [C], added first
  // Eval batch-norm, all four set or all null.
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  bool has_act = false;
  Activation act = Activation::kReLU;

  bool empty() const {
    return bias == nullptr && bn_mean == nullptr && !has_act;
  }
};

/// An epilogue's channel terms as vectors: one channel broadcast to every
/// lane, or simd::kWidth consecutive channels one per lane.
struct EpilogueLanes {
  simd::VF bias, mean, inv_std, gamma, beta;
};

inline EpilogueLanes epilogue_broadcast(const Epilogue& e, std::int64_t c) {
  EpilogueLanes k{};
  if (e.bias != nullptr) k.bias = simd::vset1(e.bias[c]);
  if (e.bn_mean != nullptr) {
    k.mean = simd::vset1(e.bn_mean[c]);
    k.inv_std = simd::vset1(e.bn_inv_std[c]);
    k.gamma = simd::vset1(e.bn_gamma[c]);
    k.beta = simd::vset1(e.bn_beta[c]);
  }
  return k;
}

/// Channels [c0, c0 + count) in lanes 0..count-1 (count <= kWidth); the
/// lanes past count hold zeros and their results are never stored.
inline EpilogueLanes epilogue_lanes(const Epilogue& e, std::int64_t c0,
                                    std::int64_t count) {
  const auto load = [&](const float* p) {
    if (count == simd::kWidth) return simd::vload(p + c0);
    float tmp[simd::kWidth] = {};
    for (std::int64_t l = 0; l < count; ++l) tmp[l] = p[c0 + l];
    return simd::vload(tmp);
  };
  EpilogueLanes k{};
  if (e.bias != nullptr) k.bias = load(e.bias);
  if (e.bn_mean != nullptr) {
    k.mean = load(e.bn_mean);
    k.inv_std = load(e.bn_inv_std);
    k.gamma = load(e.bn_gamma);
    k.beta = load(e.bn_beta);
  }
  return k;
}

/// The epilogue of one vector of accumulators.
inline simd::VF epilogue_apply(const Epilogue& e, const EpilogueLanes& k,
                               simd::VF v) {
  if (e.bias != nullptr) v = simd::vadd(v, k.bias);
  if (e.bn_mean != nullptr)
    v = simd::vfmadd(k.gamma, simd::vmul(simd::vsub(v, k.mean), k.inv_std),
                     k.beta);
  if (e.has_act) {
    switch (e.act) {
      case Activation::kReLU: v = simd::vrelu(v); break;
      case Activation::kReLU6: v = simd::vrelu6(v); break;
      case Activation::kSiLU:
      case Activation::kSigmoid: {
        float lanes[simd::kWidth];
        simd::vstore(lanes, v);
        for (float& x : lanes) x = activate(e.act, x);
        v = simd::vload(lanes);
        break;
      }
    }
  }
  return v;
}

/// Applies `k`'s epilogue in place to `count` whole vectors at p.  The
/// terms are copied to locals first: vector stores may alias anything, so
/// terms read through the references would be reloaded after every store.
inline void epilogue_vectors(const Epilogue& e, const EpilogueLanes& k,
                             float* p, std::int64_t count) {
  const Epilogue ee = e;
  const EpilogueLanes kk = k;
  for (std::int64_t v = 0; v < count; ++v, p += simd::kWidth)
    simd::vstore(p, epilogue_apply(ee, kk, simd::vload(p)));
}

/// dst[i] = epilogue of channel c applied to src[i], for n values (dst may
/// equal src).  The tail is padded into a whole vector, so every element
/// takes the same vector path wherever it sits.
inline void epilogue_run(const Epilogue& e, std::int64_t c, const float* src,
                         float* dst, std::int64_t n) {
  const Epilogue ee = e;  // locals, as in epilogue_vectors
  const EpilogueLanes k = epilogue_broadcast(ee, c);
  std::int64_t i = 0;
  for (; i + simd::kWidth <= n; i += simd::kWidth)
    simd::vstore(dst + i, epilogue_apply(ee, k, simd::vload(src + i)));
  if (i < n) {
    float tail[simd::kWidth] = {};
    for (std::int64_t j = i; j < n; ++j) tail[j - i] = src[j];
    simd::vstore(tail, epilogue_apply(ee, k, simd::vload(tail)));
    for (std::int64_t j = i; j < n; ++j) dst[j] = tail[j - i];
  }
}

}  // namespace nshd::tensor
