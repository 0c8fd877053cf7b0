// Single-precision GEMM kernels.
//
// All heavy math in the NN substrate funnels through these routines:
// convolution (via im2col), linear layers, HD random projection, class
// hypervector similarity banks.  The kernels are register-blocked
// micro-kernels on the fixed-width SIMD layer (tensor/simd.hpp): `gemm`
// packs B into NR-wide panels through a per-thread Workspace and holds a
// 4-row x 2-vector C tile in registers across the whole K loop; `gemm_bt`
// runs 2x4 blocks of vectorized dot products; `gemv`/`gemv_t`/`dot` use
// multi-accumulator vector loops.  Every C element has one fixed
// accumulation order per binary — independent of NSHD_THREADS, because
// parallel chunk boundaries depend only on the range and grain.  Both the
// legacy layer `forward` and the planned `forward_into` path call these
// same entry points, which keeps the plan-parity tests bitwise.
#pragma once

#include <cstdint>

namespace nshd::tensor {

/// C[M,N] = A[M,K] * B[K,N] (+ C if accumulate).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate = false);

struct Epilogue;

/// `gemm` over several NCHW samples that share A, in one call:
/// C_s[M,N] = epilogue(A[M,K] * B_s[K,N]) for s in [0, samples), with
/// B_s = b + s * b_stride and C_s = c + s * c_stride.  The samples' columns
/// are packed side by side into one panel set, so a pointwise conv over a
/// small plane (N = H*W of 4 or 16) still fills whole register panels and
/// pays the per-call packing and tiling overhead once per group.  Row i of
/// each C_s is output channel i; a non-null `epilogue` (tensor/epilogue.hpp)
/// finishes every element on its way from the tile to C.  Each element
/// keeps gemm's K-ordered chain from zero, so the result is bitwise equal to
/// one gemm per sample followed by the epilogue; `gemm` is the one-sample
/// case without one.
void gemm_samples(const float* a, const float* b, std::int64_t b_stride,
                  float* c, std::int64_t c_stride, std::int64_t m,
                  std::int64_t k, std::int64_t n, std::int64_t samples,
                  const Epilogue* epilogue = nullptr);

/// C[M,N] = A[M,K] * B[N,K]^T (+ C if accumulate).
void gemm_bt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate = false);

/// Same contract as gemm_bt, but transpose-packs B into the `gemm` panel
/// format and runs the register-tiled micro-kernel — roughly 2x faster when
/// K is large (the dW = dOut * col^T shape in conv/linear backward).  The
/// per-element reduction order differs from gemm_bt's (sequential K chain
/// instead of lane-split + hsum), though it is still fixed and
/// NSHD_THREADS-invariant; use only where bitwise compatibility with
/// gemm_bt outputs is not required (gradient accumulation).
void gemm_bt_packed(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate = false);

/// C[M,N] = A[K,M]^T * B[K,N] (+ C if accumulate).
void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate = false);

/// y[M] = A[M,N] * x[N].
void gemv(const float* a, const float* x, float* y, std::int64_t m, std::int64_t n);

/// y[N] = A[M,N]^T * x[M].
void gemv_t(const float* a, const float* x, float* y, std::int64_t m, std::int64_t n);

/// Dot product of two length-n vectors.
float dot(const float* a, const float* b, std::int64_t n);

/// Int8 GEMM in BT form: C_s32[M,N] = A_s8[M,K] * B_u8[N,K]^T.  A holds
/// quantized weight (or bipolar class-bank) rows, B holds quantized
/// activation rows — im2row patches or unpacked query bits — so both
/// operands stream contiguously along K with no packing step.  The weight
/// operand is sign-extended to s16 once per call, then a 4x2 register tile
/// shares each widened activation strip across 4 weight rows and each
/// weight strip across 2 activation columns (tensor/simd.hpp load_s16 /
/// madd_s16); accumulation is exact integer arithmetic, hence bitwise
/// invariant across NSHD_THREADS and identical on every ISA.
void gemm_s8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c,
             std::int64_t m, std::int64_t k, std::int64_t n);

/// The same BT-form int8 GEMM with the weight operand already widened:
/// C_s32[M,N] = A_s16[M,K] * B_u8[N,K]^T, with row strides lda/ldb >= K.
/// Callers that keep widened weights around (the quantized inference plan
/// stores them per layer, zero-padded to a whole simd::kDotBytes strip)
/// skip the per-call widening pass entirely — and when `k` itself is
/// passed as the padded count, the kernel never runs a scalar K tail:
/// zero-padded weight lanes annihilate whatever initialized bytes sit in
/// the activation rows' padding.
void gemm_s16_u8(const std::int16_t* a, std::int64_t lda,
                 const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                 std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace nshd::tensor
