// Portable fixed-width SIMD layer for the f32 and packed-bit kernels.
//
// One ISA is selected at compile time — AVX2+FMA, SSE2, NEON, or a scalar
// fallback — and the vector width `kWidth` is a compile-time constant, so
// every kernel built on this header has a single, fixed accumulation order
// per binary.  That is the determinism contract: results are bitwise
// reproducible for a given build (and invariant to NSHD_THREADS, which only
// moves fixed-boundary chunks between workers), but may differ across ISAs
// because lane count and FMA contraction differ.  The portable default build
// selects SSE2 on x86-64; configure with -DNSHD_NATIVE=ON to unlock AVX2+FMA
// where the build machine has it.
//
// The abstraction is deliberately tiny: a vector-of-float value type `VF`
// with load/store/broadcast, add/sub/mul/fmadd, ReLU/ReLU6 clamps that
// reproduce the scalar activate() bit for bit (NaN and -0 included), a
// fixed-order horizontal sum, and two bitmap helpers (`signed_load`,
// `signed_set1`) that apply a per-lane ±1 sign taken from the low `kWidth`
// bits of a packed bipolar word.  The sign helpers are what turn the HD encode/similarity loops from
// per-set-bit scalar gathers into straight-line vector code: bit=1 keeps
// the lane, bit=0 flips its sign bit (bipolar -1), with no branches and no
// dependence on the bit population.
//
// Int8 widening family (quantized inference): every ISA block also defines
// a 16-byte activation type `VQA` (u8 values zero-extended to s16 lanes), an
// s32 accumulator `VS32`, and `madd_s8(acc, a, b)` which sign-extends 16 s8
// weights, multiplies lane-wise against the widened activations, and adds
// horizontal s16 pairs into s32 lanes (`madd_epi16` style).  Unlike the
// hardware `maddubs` instruction, the explicit extend-then-madd sequence
// never saturates (u8*s8 pair sums reach 255*127*2 = 64770 > s16 max), so
// the kernels are EXACT over the full u8 x s8 domain — every ISA computes
// the same integers and thread-count invariance is free.  The s32 lanes are
// overflow-safe for dots up to n ~= 2^19 at the |a|=255, |b|=127 corner;
// callers here keep n below ~10^4 (im2col rows, HD dimensions).
// `load_s16` / `madd_s16` are the pre-widened flavor: the weight operand is
// sign-extended to s16 once outside the hot loop (tensor/gemm.cpp keeps a
// widened copy per call or per plan), so the inner GEMM iteration spends no
// shuffle-port work on widening at all.
#pragma once

#include <cstdint>

#if defined(NSHD_SIMD_FORCE_SCALAR)
#define NSHD_SIMD_SCALAR 1
#elif defined(__AVX2__) && defined(__FMA__)
#define NSHD_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#define NSHD_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define NSHD_SIMD_NEON 1
#include <arm_neon.h>
#else
#define NSHD_SIMD_SCALAR 1
#endif

namespace nshd::tensor::simd {

#if defined(NSHD_SIMD_AVX2)

inline constexpr int kWidth = 8;
inline constexpr const char* kIsaName = "avx2+fma";

struct VF {
  __m256 v;
};

inline VF vzero() { return {_mm256_setzero_ps()}; }
inline VF vset1(float x) { return {_mm256_set1_ps(x)}; }
inline VF vload(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void vstore(float* p, VF a) { _mm256_storeu_ps(p, a.v); }
inline VF vadd(VF a, VF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VF vsub(VF a, VF b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline VF vmul(VF a, VF b) { return {_mm256_mul_ps(a.v, b.v)}; }
/// a*b + c (fused on this ISA).
inline VF vfmadd(VF a, VF b, VF c) { return {_mm256_fmadd_ps(a.v, b.v, c.v)}; }
/// x > 0 ? x : 0.  maxps returns its second operand for NaN and for two
/// zeros, so NaN -> +0 and -0 -> +0, as activate(kReLU).
inline VF vrelu(VF x) { return {_mm256_max_ps(x.v, _mm256_setzero_ps())}; }
/// x < 0 ? 0 : (x > 6 ? 6 : x): min(6, x) keeps x for NaN, then max(0, t)
/// keeps t for NaN and -0, as activate(kReLU6).
inline VF vrelu6(VF x) {
  return {_mm256_max_ps(_mm256_setzero_ps(),
                        _mm256_min_ps(_mm256_set1_ps(6.0f), x.v))};
}

/// Fixed-order horizontal sum: low and high 128-bit halves are added
/// lane-wise, then reduced pairwise — the order never varies at runtime.
inline float vhsum(VF a) {
  const __m128 lo = _mm256_castps256_ps128(a.v);
  const __m128 hi = _mm256_extractf128_ps(a.v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

namespace detail {
inline __m256i lane_signflip(std::uint64_t bits) {
  // Lane l gets 0x80000000 when bit l is CLEAR (bipolar -1), 0 when set.
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i b = _mm256_set1_epi32(static_cast<int>(bits & 0xFFu));
  const __m256i set = _mm256_cmpeq_epi32(_mm256_and_si256(b, lane_bit), lane_bit);
  return _mm256_andnot_si256(set, _mm256_set1_epi32(static_cast<int>(0x80000000u)));
}
}  // namespace detail

/// Lane l: bit l of `bits` set -> +p[l], clear -> -p[l].
inline VF signed_load(const float* p, std::uint64_t bits) {
  return {_mm256_xor_ps(_mm256_loadu_ps(p),
                        _mm256_castsi256_ps(detail::lane_signflip(bits)))};
}

/// Lane l: bit l of `bits` set -> +x, clear -> -x.
inline VF signed_set1(float x, std::uint64_t bits) {
  return {_mm256_xor_ps(_mm256_set1_ps(x),
                        _mm256_castsi256_ps(detail::lane_signflip(bits)))};
}

/// 16 u8 activations widened to sixteen s16 lanes.
struct VQA {
  __m256i v;
};
/// Eight s32 accumulator lanes.
struct VS32 {
  __m256i v;
};

inline VS32 vqzero() { return {_mm256_setzero_si256()}; }
inline VQA widen_u8(const std::uint8_t* p) {
  return {_mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
}
/// acc += pairwise sums of a[l] * sign_extend(b[l]) over 16 lanes (exact).
inline VS32 madd_s8(VS32 acc, VQA a, const std::int8_t* b) {
  const __m256i bw = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  return {_mm256_add_epi32(acc.v, _mm256_madd_epi16(a.v, bw))};
}
inline std::int32_t vs32_hsum(VS32 a) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(a.v),
                            _mm256_extracti128_si256(a.v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}
/// 16 pre-widened s16 lanes (weights sign-extended ahead of the hot loop).
inline VQA load_s16(const std::int16_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
/// acc += pairwise sums of a[l] * b[l] over 16 s16 lanes.  Exact: both
/// operands fit s16, so the madd's 32-bit pair sums cannot saturate.
inline VS32 madd_s16(VS32 acc, VQA a, VQA b) {
  return {_mm256_add_epi32(acc.v, _mm256_madd_epi16(a.v, b.v))};
}
/// out[0..3] = hsum(a), hsum(b), hsum(c), hsum(d) in one shuffle tree —
/// integer adds, so regrouping lanes is exact; much cheaper than four
/// independent vs32_hsum reductions when a tile retires 4+ outputs at once.
inline void vs32_hsum4(VS32 a, VS32 b, VS32 c, VS32 d, std::int32_t* out) {
  const __m256i t0 = _mm256_hadd_epi32(a.v, b.v);
  const __m256i t1 = _mm256_hadd_epi32(c.v, d.v);
  const __m256i t2 = _mm256_hadd_epi32(t0, t1);
  const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(t2),
                                  _mm256_extracti128_si256(t2, 1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

#elif defined(NSHD_SIMD_SSE2)

inline constexpr int kWidth = 4;
inline constexpr const char* kIsaName = "sse2";

struct VF {
  __m128 v;
};

inline VF vzero() { return {_mm_setzero_ps()}; }
inline VF vset1(float x) { return {_mm_set1_ps(x)}; }
inline VF vload(const float* p) { return {_mm_loadu_ps(p)}; }
inline void vstore(float* p, VF a) { _mm_storeu_ps(p, a.v); }
inline VF vadd(VF a, VF b) { return {_mm_add_ps(a.v, b.v)}; }
inline VF vsub(VF a, VF b) { return {_mm_sub_ps(a.v, b.v)}; }
inline VF vmul(VF a, VF b) { return {_mm_mul_ps(a.v, b.v)}; }
/// a*b + c.  SSE2 has no FMA: two roundings, fixed per build.
inline VF vfmadd(VF a, VF b, VF c) { return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)}; }
/// Same operand order as the AVX2 block: bitwise activate(kReLU/kReLU6).
inline VF vrelu(VF x) { return {_mm_max_ps(x.v, _mm_setzero_ps())}; }
inline VF vrelu6(VF x) {
  return {_mm_max_ps(_mm_setzero_ps(), _mm_min_ps(_mm_set1_ps(6.0f), x.v))};
}

inline float vhsum(VF a) {
  __m128 s = _mm_add_ps(a.v, _mm_movehl_ps(a.v, a.v));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

namespace detail {
inline __m128i lane_signflip(std::uint64_t bits) {
  const __m128i lane_bit = _mm_setr_epi32(1, 2, 4, 8);
  const __m128i b = _mm_set1_epi32(static_cast<int>(bits & 0xFu));
  const __m128i set = _mm_cmpeq_epi32(_mm_and_si128(b, lane_bit), lane_bit);
  return _mm_andnot_si128(set, _mm_set1_epi32(static_cast<int>(0x80000000u)));
}
}  // namespace detail

inline VF signed_load(const float* p, std::uint64_t bits) {
  return {_mm_xor_ps(_mm_loadu_ps(p), _mm_castsi128_ps(detail::lane_signflip(bits)))};
}

inline VF signed_set1(float x, std::uint64_t bits) {
  return {_mm_xor_ps(_mm_set1_ps(x), _mm_castsi128_ps(detail::lane_signflip(bits)))};
}

/// 16 u8 activations widened to s16 (two 8-lane halves).
struct VQA {
  __m128i lo, hi;
};
struct VS32 {
  __m128i v;
};

inline VS32 vqzero() { return {_mm_setzero_si128()}; }
inline VQA widen_u8(const std::uint8_t* p) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i z = _mm_setzero_si128();
  return {_mm_unpacklo_epi8(raw, z), _mm_unpackhi_epi8(raw, z)};
}
inline VS32 madd_s8(VS32 acc, VQA a, const std::int8_t* b) {
  // Sign-extend s8 -> s16 with the unpack-with-self + arithmetic-shift
  // idiom (SSE2 has no cvtepi8).
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i blo = _mm_srai_epi16(_mm_unpacklo_epi8(raw, raw), 8);
  const __m128i bhi = _mm_srai_epi16(_mm_unpackhi_epi8(raw, raw), 8);
  const __m128i v = _mm_add_epi32(acc.v, _mm_madd_epi16(a.lo, blo));
  return {_mm_add_epi32(v, _mm_madd_epi16(a.hi, bhi))};
}
inline std::int32_t vs32_hsum(VS32 a) {
  __m128i s = _mm_add_epi32(a.v, _mm_shuffle_epi32(a.v, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}
inline VQA load_s16(const std::int16_t* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8))};
}
inline VS32 madd_s16(VS32 acc, VQA a, VQA b) {
  const __m128i v = _mm_add_epi32(acc.v, _mm_madd_epi16(a.lo, b.lo));
  return {_mm_add_epi32(v, _mm_madd_epi16(a.hi, b.hi))};
}
/// 4x4 lane transpose of the accumulators, then three vertical adds.
inline void vs32_hsum4(VS32 a, VS32 b, VS32 c, VS32 d, std::int32_t* out) {
  const __m128i t0 = _mm_unpacklo_epi32(a.v, b.v);  // a0 b0 a1 b1
  const __m128i t1 = _mm_unpacklo_epi32(c.v, d.v);  // c0 d0 c1 d1
  const __m128i t2 = _mm_unpackhi_epi32(a.v, b.v);  // a2 b2 a3 b3
  const __m128i t3 = _mm_unpackhi_epi32(c.v, d.v);  // c2 d2 c3 d3
  const __m128i r0 = _mm_unpacklo_epi64(t0, t1);
  const __m128i r1 = _mm_unpackhi_epi64(t0, t1);
  const __m128i r2 = _mm_unpacklo_epi64(t2, t3);
  const __m128i r3 = _mm_unpackhi_epi64(t2, t3);
  const __m128i s = _mm_add_epi32(_mm_add_epi32(r0, r1), _mm_add_epi32(r2, r3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

#elif defined(NSHD_SIMD_NEON)

inline constexpr int kWidth = 4;
inline constexpr const char* kIsaName = "neon";

struct VF {
  float32x4_t v;
};

inline VF vzero() { return {vdupq_n_f32(0.0f)}; }
inline VF vset1(float x) { return {vdupq_n_f32(x)}; }
inline VF vload(const float* p) { return {vld1q_f32(p)}; }
inline void vstore(float* p, VF a) { vst1q_f32(p, a.v); }
inline VF vadd(VF a, VF b) { return {vaddq_f32(a.v, b.v)}; }
inline VF vsub(VF a, VF b) { return {vsubq_f32(a.v, b.v)}; }
inline VF vmul(VF a, VF b) { return {vmulq_f32(a.v, b.v)}; }
inline VF vfmadd(VF a, VF b, VF c) { return {vfmaq_f32(c.v, a.v, b.v)}; }
// vmaxq/vminq propagate NaN, which activate() does not: compare + select.
inline VF vrelu(VF x) {
  const float32x4_t z = vdupq_n_f32(0.0f);
  return {vbslq_f32(vcgtq_f32(x.v, z), x.v, z)};
}
inline VF vrelu6(VF x) {
  const float32x4_t z = vdupq_n_f32(0.0f), six = vdupq_n_f32(6.0f);
  const float32x4_t t = vbslq_f32(vcgtq_f32(x.v, six), six, x.v);
  return {vbslq_f32(vcltq_f32(x.v, z), z, t)};
}

inline float vhsum(VF a) {
  float32x2_t s = vadd_f32(vget_low_f32(a.v), vget_high_f32(a.v));
  return vget_lane_f32(vpadd_f32(s, s), 0);
}

namespace detail {
inline uint32x4_t lane_signflip(std::uint64_t bits) {
  const uint32x4_t lane_bit = {1u, 2u, 4u, 8u};
  const uint32x4_t b = vdupq_n_u32(static_cast<std::uint32_t>(bits & 0xFu));
  const uint32x4_t set = vceqq_u32(vandq_u32(b, lane_bit), lane_bit);
  return vbicq_u32(vdupq_n_u32(0x80000000u), set);
}
}  // namespace detail

inline VF signed_load(const float* p, std::uint64_t bits) {
  return {vreinterpretq_f32_u32(
      veorq_u32(vreinterpretq_u32_f32(vld1q_f32(p)), detail::lane_signflip(bits)))};
}

inline VF signed_set1(float x, std::uint64_t bits) {
  return {vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(vdupq_n_f32(x)),
                                          detail::lane_signflip(bits)))};
}

struct VQA {
  int16x8_t lo, hi;
};
struct VS32 {
  int32x4_t v;
};

inline VS32 vqzero() { return {vdupq_n_s32(0)}; }
inline VQA widen_u8(const std::uint8_t* p) {
  const uint8x16_t raw = vld1q_u8(p);
  return {vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(raw))),
          vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(raw)))};
}
inline VS32 madd_s8(VS32 acc, VQA a, const std::int8_t* b) {
  const int8x16_t raw = vld1q_s8(b);
  const int16x8_t blo = vmovl_s8(vget_low_s8(raw));
  const int16x8_t bhi = vmovl_s8(vget_high_s8(raw));
  int32x4_t v = vmlal_s16(acc.v, vget_low_s16(a.lo), vget_low_s16(blo));
  v = vmlal_s16(v, vget_high_s16(a.lo), vget_high_s16(blo));
  v = vmlal_s16(v, vget_low_s16(a.hi), vget_low_s16(bhi));
  v = vmlal_s16(v, vget_high_s16(a.hi), vget_high_s16(bhi));
  return {v};
}
inline std::int32_t vs32_hsum(VS32 a) {
  const int32x2_t s = vadd_s32(vget_low_s32(a.v), vget_high_s32(a.v));
  return vget_lane_s32(vpadd_s32(s, s), 0);
}
inline VQA load_s16(const std::int16_t* p) {
  return {vld1q_s16(p), vld1q_s16(p + 8)};
}
inline VS32 madd_s16(VS32 acc, VQA a, VQA b) {
  int32x4_t v = vmlal_s16(acc.v, vget_low_s16(a.lo), vget_low_s16(b.lo));
  v = vmlal_s16(v, vget_high_s16(a.lo), vget_high_s16(b.lo));
  v = vmlal_s16(v, vget_low_s16(a.hi), vget_low_s16(b.hi));
  v = vmlal_s16(v, vget_high_s16(a.hi), vget_high_s16(b.hi));
  return {v};
}
inline void vs32_hsum4(VS32 a, VS32 b, VS32 c, VS32 d, std::int32_t* out) {
#if defined(__aarch64__)
  const int32x4_t ab = vpaddq_s32(a.v, b.v);  // a01 a23 b01 b23
  const int32x4_t cd = vpaddq_s32(c.v, d.v);
  vst1q_s32(out, vpaddq_s32(ab, cd));
#else
  out[0] = vs32_hsum(a);
  out[1] = vs32_hsum(b);
  out[2] = vs32_hsum(c);
  out[3] = vs32_hsum(d);
#endif
}

#else  // scalar fallback

inline constexpr int kWidth = 4;
inline constexpr const char* kIsaName = "scalar";

// Four explicit lanes so tail handling and accumulation order match the
// vector ISAs' structure; plain loops the compiler may or may not fold.
struct VF {
  float v[4];
};

inline VF vzero() { return {{0.0f, 0.0f, 0.0f, 0.0f}}; }
inline VF vset1(float x) { return {{x, x, x, x}}; }
inline VF vload(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void vstore(float* p, VF a) {
  for (int l = 0; l < 4; ++l) p[l] = a.v[l];
}
inline VF vadd(VF a, VF b) {
  VF r;
  for (int l = 0; l < 4; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline VF vsub(VF a, VF b) {
  VF r;
  for (int l = 0; l < 4; ++l) r.v[l] = a.v[l] - b.v[l];
  return r;
}
inline VF vmul(VF a, VF b) {
  VF r;
  for (int l = 0; l < 4; ++l) r.v[l] = a.v[l] * b.v[l];
  return r;
}
inline VF vfmadd(VF a, VF b, VF c) {
  VF r;
  for (int l = 0; l < 4; ++l) r.v[l] = a.v[l] * b.v[l] + c.v[l];
  return r;
}
inline VF vrelu(VF x) {
  for (int l = 0; l < 4; ++l) x.v[l] = x.v[l] > 0.0f ? x.v[l] : 0.0f;
  return x;
}
inline VF vrelu6(VF x) {
  for (int l = 0; l < 4; ++l) {
    const float t = x.v[l];
    x.v[l] = t < 0.0f ? 0.0f : (t > 6.0f ? 6.0f : t);
  }
  return x;
}
inline float vhsum(VF a) { return (a.v[0] + a.v[2]) + (a.v[1] + a.v[3]); }

namespace detail {
inline float flip(float x, bool keep) {
  // Sign-bit flip without branching on the value itself.
  return keep ? x : -x;
}
}  // namespace detail

inline VF signed_load(const float* p, std::uint64_t bits) {
  VF r;
  for (int l = 0; l < 4; ++l) r.v[l] = detail::flip(p[l], (bits >> l) & 1u);
  return r;
}

inline VF signed_set1(float x, std::uint64_t bits) {
  VF r;
  for (int l = 0; l < 4; ++l) r.v[l] = detail::flip(x, (bits >> l) & 1u);
  return r;
}

// 16 explicit widened lanes / 4 accumulator lanes so the structure mirrors
// the vector ISAs; integer accumulation is exact, so lane assignment does
// not change results.
struct VQA {
  std::int16_t v[16];
};
struct VS32 {
  std::int32_t v[4];
};

inline VS32 vqzero() { return {{0, 0, 0, 0}}; }
inline VQA widen_u8(const std::uint8_t* p) {
  VQA r;
  for (int l = 0; l < 16; ++l) r.v[l] = static_cast<std::int16_t>(p[l]);
  return r;
}
inline VS32 madd_s8(VS32 acc, VQA a, const std::int8_t* b) {
  for (int l = 0; l < 16; ++l)
    acc.v[l & 3] += static_cast<std::int32_t>(a.v[l]) * b[l];
  return acc;
}
inline std::int32_t vs32_hsum(VS32 a) {
  return (a.v[0] + a.v[2]) + (a.v[1] + a.v[3]);
}
inline VQA load_s16(const std::int16_t* p) {
  VQA r;
  for (int l = 0; l < 16; ++l) r.v[l] = p[l];
  return r;
}
inline VS32 madd_s16(VS32 acc, VQA a, VQA b) {
  for (int l = 0; l < 16; ++l)
    acc.v[l & 3] += static_cast<std::int32_t>(a.v[l]) * b.v[l];
  return acc;
}
inline void vs32_hsum4(VS32 a, VS32 b, VS32 c, VS32 d, std::int32_t* out) {
  out[0] = vs32_hsum(a);
  out[1] = vs32_hsum(b);
  out[2] = vs32_hsum(c);
  out[3] = vs32_hsum(d);
}

#endif

/// Serial signed-accumulation dot of a float vector against a packed bipolar
/// word stream: sum over i of (bit_i ? +m[i] : -m[i]), for `dim` elements
/// with the words' low bits mapping to low indices.  Shared by the HD
/// kernels (hd::dot, RandomProjection rows) so they agree on one
/// accumulation order.  Uses four rotating vector accumulators (fixed
/// schedule) plus a scalar tail.
inline float signed_sum(const float* m, const std::uint64_t* words, std::int64_t dim) {
  const std::int64_t full_words = dim >> 6;
  VF acc0 = vzero(), acc1 = vzero(), acc2 = vzero(), acc3 = vzero();
  constexpr int kGroups = 64 / kWidth;
  for (std::int64_t w = 0; w < full_words; ++w) {
    std::uint64_t bits = words[w];
    const float* base = m + (w << 6);
    for (int g = 0; g < kGroups; g += 4) {
      acc0 = vadd(acc0, signed_load(base + (g + 0) * kWidth, bits));
      bits >>= kWidth;
      acc1 = vadd(acc1, signed_load(base + (g + 1) * kWidth, bits));
      bits >>= kWidth;
      acc2 = vadd(acc2, signed_load(base + (g + 2) * kWidth, bits));
      bits >>= kWidth;
      acc3 = vadd(acc3, signed_load(base + (g + 3) * kWidth, bits));
      bits >>= kWidth;
    }
  }
  // Whole kWidth groups of the partial tail word stay on the vector path —
  // their loads end at or before m + dim — so the scalar remainder is at
  // most kWidth - 1 elements instead of up to 63.
  const std::int64_t tail_base = full_words << 6;
  std::int64_t i = tail_base;
  std::uint64_t bits = tail_base < dim ? words[full_words] : 0;
  for (; i + kWidth <= dim; i += kWidth) {
    acc0 = vadd(acc0, signed_load(m + i, bits));
    bits >>= kWidth;
  }
  float sum = vhsum(vadd(vadd(acc0, acc1), vadd(acc2, acc3)));
  for (; i < dim; ++i, bits >>= 1) {
    sum += (bits & 1u) ? m[i] : -m[i];
  }
  return sum;
}

/// Bytes consumed per int8 madd step — uniform across ISAs so every build
/// partitions a dot identically.
inline constexpr std::int64_t kDotBytes = 16;

/// Exact widening dot: sum over i of u8 a[i] * s8 b[i], s32 result.  Two
/// rotating accumulators over 32-byte strips, a single-accumulator 16-byte
/// step, then a scalar tail — integer arithmetic, so the value is identical
/// on every ISA and for every thread count.
inline std::int32_t dot_u8s8(const std::uint8_t* a, const std::int8_t* b,
                             std::int64_t n) {
  VS32 acc0 = vqzero(), acc1 = vqzero();
  std::int64_t i = 0;
  for (; i + 2 * kDotBytes <= n; i += 2 * kDotBytes) {
    acc0 = madd_s8(acc0, widen_u8(a + i), b + i);
    acc1 = madd_s8(acc1, widen_u8(a + i + kDotBytes), b + i + kDotBytes);
  }
  for (; i + kDotBytes <= n; i += kDotBytes) {
    acc0 = madd_s8(acc0, widen_u8(a + i), b + i);
  }
  std::int32_t sum = vs32_hsum(acc0) + vs32_hsum(acc1);
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

}  // namespace nshd::tensor::simd
