#include "nn/conv.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/epilogue.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

namespace {

namespace simd = tensor::simd;

/// Columns one pointwise GEMM call covers: planes smaller than this are
/// grouped across samples up to it, which fills the register panels a 2x2
/// plane would leave half empty.  Larger planes stay one sample per call;
/// wider groups only push the packed panels out of L1.
constexpr std::int64_t kGroupColumns = 32;

std::int64_t pointwise_group(std::int64_t plane) {
  return plane >= kGroupColumns ? 1 : kGroupColumns / plane;
}

// --- Depthwise forward ---------------------------------------------------
//
// Every output is the chain sum = 0; sum += w[t] * x[t] over the K*K taps in
// (kh, kw) order, read from a zero-padded copy of the input so no tap needs
// a bounds check.  A tap that falls in the padding adds w * 0 = +-0, and a
// partial sum that starts at +0 is never -0 under round-to-nearest, so with
// finite weights every output keeps the exact bits of the chain that skips
// out-of-range taps.  Two layouts, chosen by the output plane width alone:
//
//  * rows: one padded plane per (sample, channel), vectorized along output
//    columns.  A stride-s plane is stored as s column phases per row (phase
//    q holds padded columns q, q+s, ...), so tap kw of output column ow
//    reads phase kw % s at ow + kw / s: unit stride for stride 2 as well.
//  * channel blocks: for planes narrower than two vectors, kWidth channels
//    are interleaved per pixel ([C/kWidth][Hp][Wp][kWidth]) and each lane
//    computes one channel, so a 2x2 plane still fills every lane.
//
// Either way an output vector is one chain of K*K dependent FMAs, so the
// kernels advance kChains output vectors side by side.

using tensor::Epilogue;

constexpr std::int64_t round_up(std::int64_t x, std::int64_t q) {
  return (x + q - 1) / q * q;
}

/// Output planes narrower than this take the channel-block layout.
constexpr std::int64_t kChannelBlockWidth = 2 * simd::kWidth;
/// Independent accumulation chains per kernel step.
constexpr int kChains = 4;
constexpr std::int64_t kMaxTaps = 64;
constexpr std::int64_t kMaxStride = 8;

struct DwGeometry {
  std::int64_t channels, kernel, stride, pad;
  std::int64_t in_h, in_w, out_h, out_w;
  std::int64_t hp, wp;  // padded plane
  // Row layout: padded rows of `stride` phases, `phase` floats each.  A
  // phase covers its share of the padded row and the widest vector read.
  std::int64_t phase, row;
  // Channel-block layout: padded pixels of kWidth interleaved channels.
  std::int64_t groups;

  bool channel_blocks() const { return out_w < kChannelBlockWidth; }

  /// Floats of padded input (plus, for channel blocks, the interleaved
  /// weights and one group's staging block).
  std::int64_t scratch() const {
    if (!channel_blocks()) return hp * row;
    return simd::kWidth * (groups * (hp * wp + kernel * kernel) + out_h * out_w);
  }
};

DwGeometry dw_geometry(const DepthwiseConv2d& layer, const Shape& input) {
  DwGeometry g{};
  g.channels = layer.channels();
  g.kernel = layer.kernel();
  g.stride = layer.stride();
  g.pad = layer.pad();
  g.in_h = input[2];
  g.in_w = input[3];
  g.out_h = tensor::conv_out_dim(g.in_h, g.kernel, g.stride, g.pad);
  g.out_w = tensor::conv_out_dim(g.in_w, g.kernel, g.stride, g.pad);
  g.hp = g.in_h + 2 * g.pad;
  g.wp = g.in_w + 2 * g.pad;
  g.phase = std::max((g.wp + g.stride - 1) / g.stride,
                     round_up(g.out_w, simd::kWidth) + (g.kernel - 1) / g.stride);
  g.row = g.stride * g.phase;
  g.groups = (g.channels + simd::kWidth - 1) / simd::kWidth;
  return g;
}

/// U output vectors at once: chain u sums taps t = 0..taps-1 of
/// weight(t) * src[u][off[t]], each chain in tap order.  Row planes
/// broadcast the scalar weight w[t]; channel blocks load the lane vector
/// w + t * kWidth.
template <int U, bool kLaneWeights>
inline void dw_chains(const float* const* src, const std::int64_t* off,
                      std::int64_t taps, const float* w, simd::VF* out) {
  // Local accumulators and source pointers: __m128/__m256 are may_alias,
  // so chains kept behind the `out` pointer would round-trip through
  // memory on every tap.
  const float* p[U];
  simd::VF acc[U];
  for (int u = 0; u < U; ++u) p[u] = src[u], acc[u] = simd::vzero();
  for (std::int64_t t = 0; t < taps; ++t) {
    const simd::VF wv = kLaneWeights ? simd::vload(w + t * simd::kWidth)
                                     : simd::vset1(w[t]);
    const std::int64_t o = off[t];
    for (int u = 0; u < U; ++u)
      acc[u] = simd::vfmadd(wv, simd::vload(p[u] + o), acc[u]);
  }
  for (int u = 0; u < U; ++u) out[u] = acc[u];
}

template <bool kLaneWeights>
inline void dw_chains_n(int u, const float* const* src, const std::int64_t* off,
                      std::int64_t taps, const float* w, simd::VF* acc) {
  switch (u) {
    case 4: dw_chains<4, kLaneWeights>(src, off, taps, w, acc); break;
    case 3: dw_chains<3, kLaneWeights>(src, off, taps, w, acc); break;
    case 2: dw_chains<2, kLaneWeights>(src, off, taps, w, acc); break;
    default: dw_chains<1, kLaneWeights>(src, off, taps, w, acc); break;
  }
}
static_assert(kChains == 4);

/// One output plane from its padded row copy; `off` holds each tap's
/// offset in the padded plane.
void dw_plane_rows(const DwGeometry& g, const float* padded, const float* w,
                   const std::int64_t* off, float* out_plane) {
  constexpr std::int64_t W = simd::kWidth;
  const std::int64_t taps = g.kernel * g.kernel, row = g.row;
  std::int64_t oh = 0, ow = 0;  // cursor over output vectors, row-major
  while (oh < g.out_h) {
    const float* src[kChains];
    float* dst[kChains];
    std::int64_t valid[kChains];
    int u = 0;
    for (; u < kChains && oh < g.out_h; ++u) {
      src[u] = padded + oh * g.stride * row + ow;
      dst[u] = out_plane + oh * g.out_w + ow;
      valid[u] = std::min(W, g.out_w - ow);
      ow += W;
      if (ow >= g.out_w) ow = 0, ++oh;
    }
    simd::VF acc[kChains];
    dw_chains_n<false>(u, src, off, taps, w, acc);
    for (int i = 0; i < u; ++i) {
      if (valid[i] == W) {
        simd::vstore(dst[i], acc[i]);
      } else {
        float tail[W];
        simd::vstore(tail, acc[i]);
        for (std::int64_t l = 0; l < valid[i]; ++l) dst[i][l] = tail[l];
      }
    }
  }
}

/// One channel group of one sample from its channel-block copy: `wt` holds
/// the group's weights as [tap][kWidth], and the raw sums land in `acc_buf`
/// as [pixel][kWidth].
void dw_group_blocks(const DwGeometry& g, const float* block, const float* wt,
                     const std::int64_t* off, float* acc_buf) {
  constexpr std::int64_t W = simd::kWidth;
  const std::int64_t taps = g.kernel * g.kernel, wp = g.wp;
  std::int64_t oh = 0, ow = 0;
  float* dst = acc_buf;
  while (oh < g.out_h) {
    const float* src[kChains];
    int u = 0;
    for (; u < kChains && oh < g.out_h; ++u) {
      src[u] = block + (oh * g.stride * wp + ow * g.stride) * W;
      if (++ow == g.out_w) ow = 0, ++oh;
    }
    simd::VF acc[kChains];
    dw_chains_n<true>(u, src, off, taps, wt, acc);
    for (int i = 0; i < u; ++i, dst += W) simd::vstore(dst, acc[i]);
  }
}

/// d[j] = s[j * stride]; a compile-time S lets the stride-2 case vectorize.
template <int S>
inline void strided_copy(const float* s, float* d, std::int64_t count,
                         std::int64_t stride = S) {
  const std::int64_t step = S > 0 ? S : stride;
  for (std::int64_t j = 0; j < count; ++j) d[j] = s[j * step];
}

void dw_forward(const DwGeometry& g, std::int64_t batch, const float* in,
                const float* weight, const Epilogue& e, float* out,
                float* scratch) {
  constexpr std::int64_t W = simd::kWidth;
  const std::int64_t in_plane = g.in_h * g.in_w, out_plane = g.out_h * g.out_w;
  const std::int64_t taps = g.kernel * g.kernel;
  assert(taps <= kMaxTaps);
  std::int64_t off[kMaxTaps];
  // Padding positions are the same for every plane, so they are zeroed
  // once and each plane overwrites only its valid interior.
  std::memset(scratch, 0, static_cast<std::size_t>(g.scratch()) * sizeof(float));
  if (!g.channel_blocks()) {
    const std::int64_t row = g.row, phase = g.phase, s = g.stride;
    for (std::int64_t t = 0; t < taps; ++t) {
      const std::int64_t kh = t / g.kernel, kw = t % g.kernel;
      off[t] = kh * row + (kw % s) * phase + kw / s;
    }
    // Padded column iw + pad lands in phase (iw + pad) % s; phase q starts
    // at input column first[q], padded index dst0[q], and takes count[q].
    std::int64_t first[kMaxStride], dst0[kMaxStride], count[kMaxStride];
    assert(s <= kMaxStride);
    for (std::int64_t q = 0; q < s; ++q) {
      first[q] = ((q - g.pad) % s + s) % s;
      dst0[q] = q * phase + (first[q] + g.pad) / s;
      count[q] = std::max<std::int64_t>(0, (g.in_w - first[q] + s - 1) / s);
    }
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t c = 0; c < g.channels; ++c) {
        const float* src = in + (n * g.channels + c) * in_plane;
        for (std::int64_t ih = 0; ih < g.in_h; ++ih) {
          float* dst = scratch + (ih + g.pad) * row;
          const float* s_row = src + ih * g.in_w;
          if (s == 1) {
            std::memcpy(dst + g.pad, s_row,
                        static_cast<std::size_t>(g.in_w) * sizeof(float));
          } else if (s == 2) {
            strided_copy<2>(s_row + first[0], dst + dst0[0], count[0]);
            strided_copy<2>(s_row + first[1], dst + dst0[1], count[1]);
          } else {
            for (std::int64_t q = 0; q < s; ++q)
              strided_copy<0>(s_row + first[q], dst + dst0[q], count[q], s);
          }
        }
        float* plane = out + (n * g.channels + c) * out_plane;
        dw_plane_rows(g, scratch, weight + c * taps, off, plane);
        if (!e.empty()) tensor::epilogue_run(e, c, plane, plane, out_plane);
      }
    }
    return;
  }
  const std::int64_t hp = g.hp, wp = g.wp, groups = g.groups;
  for (std::int64_t t = 0; t < taps; ++t)
    off[t] = ((t / g.kernel) * wp + t % g.kernel) * W;
  float* blocks = scratch;
  float* wt = blocks + groups * hp * wp * W;
  float* acc_buf = wt + groups * taps * W;
  for (std::int64_t c = 0; c < g.channels; ++c)
    for (std::int64_t t = 0; t < taps; ++t)
      wt[((c / W) * taps + t) * W + c % W] = weight[c * taps + t];
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      const float* src = in + (n * g.channels + c) * in_plane;
      float* dst = blocks + ((c / W) * hp * wp + g.pad * wp + g.pad) * W + c % W;
      for (std::int64_t ih = 0; ih < g.in_h; ++ih)
        for (std::int64_t iw = 0; iw < g.in_w; ++iw)
          dst[(ih * wp + iw) * W] = src[ih * g.in_w + iw];
    }
    float* out_n = out + n * g.channels * out_plane;
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      dw_group_blocks(g, blocks + grp * hp * wp * W, wt + grp * taps * W, off,
                      acc_buf);
      const std::int64_t c0 = grp * W, count = std::min(W, g.channels - c0);
      if (!e.empty())
        tensor::epilogue_vectors(e, tensor::epilogue_lanes(e, c0, count),
                                 acc_buf, out_plane);
      float* dst = out_n + c0 * out_plane;
      for (std::int64_t l = 0; l < count; ++l)
        for (std::int64_t p = 0; p < out_plane; ++p)
          dst[l * out_plane + p] = acc_buf[p * W + l];
    }
  }
}

// Interior depthwise backward row for one kh, stride 1.  One fused pass over
// the row accumulates all K kw-tap dW partial sums in vector lanes and adds
// the shifted dX saxpy, instead of a separate dot + saxpy sweep per tap.
// The traversal is fixed, so results are deterministic and thread-count
// invariant; the per-element reduction order differs from the guarded path,
// which is fine for training-only gradients (no goldens lock them).
template <int K>
void dw_bwd_row_s1(const float* g, const float* src, float* dst,
                   const float* wrow, float* gwrow, std::int64_t count) {
  simd::VF acc[K];
  for (int kw = 0; kw < K; ++kw) acc[kw] = simd::vzero();
  std::int64_t i = 0;
  for (; i + simd::kWidth <= count; i += simd::kWidth) {
    const simd::VF gv = simd::vload(g + i);
    for (int kw = 0; kw < K; ++kw)
      acc[kw] = simd::vfmadd(gv, simd::vload(src + i + kw), acc[kw]);
    // The K overlapping read-modify-write spans are applied in kw order, so
    // each dst element sees a fixed accumulation sequence.
    for (int kw = 0; kw < K; ++kw) {
      float* d = dst + i + kw;
      simd::vstore(d, simd::vfmadd(simd::vset1(wrow[kw]), gv, simd::vload(d)));
    }
  }
  float tail[K] = {};
  for (; i < count; ++i) {
    const float gs = g[i];
    for (int kw = 0; kw < K; ++kw) {
      tail[kw] += gs * src[i + kw];
      dst[i + kw] += wrow[kw] * gs;
    }
  }
  for (int kw = 0; kw < K; ++kw)
    gwrow[kw] += simd::vhsum(acc[kw]) + tail[kw];
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(Shape{out_channels, in_channels * kernel * kernel}, "conv.weight"),
      bias_(Shape{bias ? out_channels : 0}, "conv.bias") {
  kaiming_normal(weight_.value, in_channels * kernel * kernel, rng);
}

tensor::ConvGeometry Conv2d::geometry(std::int64_t in_h, std::int64_t in_w) const {
  return {.channels = in_channels_,
          .in_h = in_h,
          .in_w = in_w,
          .kernel_h = kernel_,
          .kernel_w = kernel_,
          .stride = stride_,
          .pad = pad_};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  assert(input.shape().rank() == 4 && input.shape()[1] == in_channels_);
  const std::int64_t batch = input.shape()[0];
  const auto geom = geometry(input.shape()[2], input.shape()[3]);
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t col_rows = geom.col_rows(), col_cols = geom.col_cols();

  if (training) cached_input_ = input;

  Tensor output(Shape{batch, out_channels_, out_h, out_w});
  std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));
  const std::int64_t in_stride = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t out_stride = out_channels_ * out_h * out_w;
  for (std::int64_t n = 0; n < batch; ++n) {
    tensor::im2col(input.data() + n * in_stride, geom, col.data());
    // out[n] = W[O, col_rows] * col[col_rows, col_cols]
    tensor::gemm(weight_.value.data(), col.data(), output.data() + n * out_stride,
                 out_channels_, col_rows, col_cols);
    if (has_bias_) {
      float* out_n = output.data() + n * out_stride;
      for (std::int64_t o = 0; o < out_channels_; ++o) {
        const float b = bias_.value[o];
        float* plane = out_n + o * out_h * out_w;
        for (std::int64_t i = 0; i < out_h * out_w; ++i) plane[i] += b;
      }
    }
  }
  return output;
}

void Conv2d::forward_into(const TensorView& in, TensorView out,
                          Workspace& scratch) {
  forward_epilogue(in, out, scratch, Epilogue{});
}

void Conv2d::forward_epilogue(const TensorView& in, TensorView out,
                              Workspace& scratch, const Epilogue& post) {
  assert(in.shape().rank() == 4 && in.shape()[1] == in_channels_);
  const std::int64_t batch = in.shape()[0];
  const auto geom = geometry(in.shape()[2], in.shape()[3]);
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t col_rows = geom.col_rows(), col_cols = geom.col_cols();
  assert(out.shape() == Shape({batch, out_channels_, out_h, out_w}));

  // The bias joins the epilogue as its first term: same `+ b` per element
  // as forward()'s separate pass.
  Epilogue e = post;
  if (has_bias_) e.bias = bias_.value.data();
  const std::int64_t in_stride = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t out_stride = out_channels_ * out_h * out_w;

  // For a pointwise conv (k=1, s=1, p=0) the im2col matrix IS the input
  // plane [C, H*W], so the GEMM reads the input directly — same operands,
  // bitwise-identical output — and small planes group several samples per
  // GEMM call.  Otherwise the im2col buffer persists in the workspace
  // across samples; im2col writes every element (padding included), so it
  // needs no zeroing.
  if (kernel_ == 1 && stride_ == 1 && pad_ == 0) {
    const std::int64_t group = pointwise_group(col_cols);
    for (std::int64_t n = 0; n < batch; n += group) {
      tensor::gemm_samples(weight_.value.data(), in.data() + n * in_stride,
                           in_stride, out.data() + n * out_stride, out_stride,
                           out_channels_, col_rows, col_cols,
                           std::min(group, batch - n), &e);
    }
    return;
  }
  Workspace::Frame frame(scratch);
  float* col = scratch.alloc(col_rows * col_cols);
  for (std::int64_t n = 0; n < batch; ++n) {
    tensor::im2col(in.data() + n * in_stride, geom, col);
    tensor::gemm_samples(weight_.value.data(), col, 0,
                         out.data() + n * out_stride, 0, out_channels_,
                         col_rows, col_cols, 1, &e);
  }
}

std::int64_t Conv2d::scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  if (kernel_ == 1 && stride_ == 1 && pad_ == 0) return 0;  // pointwise: no col
  const auto geom = geometry(input[2], input[3]);
  return geom.col_rows() * geom.col_cols();
}

std::int64_t Conv2d::train_scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  const auto geom = geometry(input[2], input[3]);
  const std::int64_t chunks =
      util::chunk_count(0, input[0], kTrainSampleGrain);
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  // Per chunk: dW partial, bias partial, and (non-pointwise) col + col_grad.
  std::int64_t per_chunk =
      out_channels_ * geom.col_rows() + out_channels_ + 2 * align;
  if (!(kernel_ == 1 && stride_ == 1 && pad_ == 0))
    per_chunk += 2 * geom.col_rows() * geom.col_cols() + 2 * align;
  return chunks * per_chunk;
}

void Conv2d::backward_into(const TensorView& in, const TensorView& grad_out,
                           TensorView grad_in, Workspace& ws) {
  assert(in.shape().rank() == 4 && in.shape()[1] == in_channels_);
  const std::int64_t batch = in.shape()[0];
  const auto geom = geometry(in.shape()[2], in.shape()[3]);
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t col_rows = geom.col_rows(), col_cols = geom.col_cols();
  assert(grad_out.shape() == Shape({batch, out_channels_, out_h, out_w}));
  assert(grad_in.shape() == in.shape());

  const bool pointwise = kernel_ == 1 && stride_ == 1 && pad_ == 0;
  const std::int64_t in_stride = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t out_stride = out_channels_ * out_h * out_w;
  const std::int64_t w_numel = out_channels_ * col_rows;
  const std::int64_t chunks = util::chunk_count(0, batch, kTrainSampleGrain);

  // Deterministic data-parallel accumulation: the batch is sharded into
  // fixed sample chunks; each chunk accumulates dW/db into its own zeroed
  // partial, and the partials are reduced serially in chunk-index order —
  // the same float-add sequence at every NSHD_THREADS.  Buffers are carved
  // out serially up front because Workspace::alloc is not thread-safe.
  Workspace::Frame frame(ws);
  std::vector<float*> dw(static_cast<std::size_t>(chunks));
  std::vector<float*> db(static_cast<std::size_t>(chunks), nullptr);
  std::vector<float*> col(static_cast<std::size_t>(chunks), nullptr);
  std::vector<float*> col_grad(static_cast<std::size_t>(chunks), nullptr);
  for (std::int64_t c = 0; c < chunks; ++c) {
    dw[c] = ws.alloc(w_numel);
    std::memset(dw[c], 0, static_cast<std::size_t>(w_numel) * sizeof(float));
    if (has_bias_) {
      db[c] = ws.alloc(out_channels_);
      std::memset(db[c], 0,
                  static_cast<std::size_t>(out_channels_) * sizeof(float));
    }
    if (!pointwise) {
      col[c] = ws.alloc(col_rows * col_cols);
      col_grad[c] = ws.alloc(col_rows * col_cols);
    }
  }

  util::parallel_for_chunks(0, batch, kTrainSampleGrain,
                            [&](std::int64_t ci, std::int64_t nb,
                                std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      const float* gout = grad_out.data() + n * out_stride;
      float* gin = grad_in.data() + n * in_stride;
      // dW_chunk += gout[O, cols] * col[rows, cols]^T — gemm_bt_packed (the
      // K axis is the whole output plane, where the packed kernel is ~2x the
      // dot-product form).  For a pointwise conv the col matrix IS the input
      // plane [C, H*W], so im2col is skipped and dX lands straight in
      // grad_in: col2im is the identity there, and writing x instead of
      // accumulating into zeros is bitwise equal.
      if (pointwise) {
        tensor::gemm_bt_packed(gout, in.data() + n * in_stride, dw[ci],
                               out_channels_, col_cols, col_rows,
                               /*accumulate=*/true);
      } else {
        tensor::im2col(in.data() + n * in_stride, geom, col[ci]);
        tensor::gemm_bt_packed(gout, col[ci], dw[ci], out_channels_, col_cols,
                               col_rows, /*accumulate=*/true);
      }
      if (has_bias_) {
        for (std::int64_t o = 0; o < out_channels_; ++o) {
          const float* plane = gout + o * out_h * out_w;
          float sum = 0.0f;
          for (std::int64_t i = 0; i < out_h * out_w; ++i) sum += plane[i];
          db[ci][o] += sum;
        }
      }
      // dcol = W^T[rows, O] * gout[O, cols]
      if (pointwise) {
        tensor::gemm_at(weight_.value.data(), gout, gin, col_rows,
                        out_channels_, col_cols);
      } else {
        tensor::gemm_at(weight_.value.data(), gout, col_grad[ci], col_rows,
                        out_channels_, col_cols);
        std::memset(gin, 0, static_cast<std::size_t>(in_stride) * sizeof(float));
        tensor::col2im(col_grad[ci], geom, gin);
      }
    }
  });

  for (std::int64_t c = 0; c < chunks; ++c) {
    float* wg = weight_.grad.data();
    const float* part = dw[c];
    for (std::int64_t i = 0; i < w_numel; ++i) wg[i] += part[i];
    if (has_bias_) {
      for (std::int64_t o = 0; o < out_channels_; ++o)
        bias_.grad[o] += db[c][o];
    }
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw TrainingStateError(name() +
                             "::backward before forward(training=true)");
  if (grad_output.shape() != output_shape(cached_input_.shape()))
    throw TrainingStateError(name() + "::backward: grad_output shape " +
                             grad_output.shape().to_string() +
                             " does not match the cached batch " +
                             cached_input_.shape().to_string());
  Tensor grad_input(cached_input_.shape());
  Workspace& ws = legacy_train_workspace();
  ws.reset();
  backward_into(cached_input_.view(), grad_output.view(), grad_input.view(),
                ws);
  return grad_input;
}

std::vector<Param*> Conv2d::params() {
  // Built whole: push_back after a one-element init list trips GCC 12's
  // -Warray-bounds under -fsanitize=undefined.
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Shape Conv2d::output_shape(const Shape& input) const {
  assert(input.rank() == 4);
  return Shape{input[0], out_channels_,
               tensor::conv_out_dim(input[2], kernel_, stride_, pad_),
               tensor::conv_out_dim(input[3], kernel_, stride_, pad_)};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ")";
}

std::int64_t Conv2d::macs_per_sample(const Shape& input_chw) const {
  assert(input_chw.rank() == 3);
  const std::int64_t out_h = tensor::conv_out_dim(input_chw[1], kernel_, stride_, pad_);
  const std::int64_t out_w = tensor::conv_out_dim(input_chw[2], kernel_, stride_, pad_);
  return out_channels_ * out_h * out_w * in_channels_ * kernel_ * kernel_;
}

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad,
                                 util::Rng& rng)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Shape{channels, kernel * kernel}, "dwconv.weight") {
  // The forward kernel keeps per-tap and per-phase offsets on the stack.
  if (kernel < 1 || kernel * kernel > kMaxTaps || stride < 1 ||
      stride > kMaxStride || pad < 0)
    throw std::invalid_argument(
        "DepthwiseConv2d: kernel must be 1..8, stride 1..8, pad >= 0");
  kaiming_normal(weight_.value, kernel * kernel, rng);
}

Tensor DepthwiseConv2d::forward(const Tensor& input, bool training) {
  assert(input.shape().rank() == 4 && input.shape()[1] == channels_);
  const std::int64_t batch = input.shape()[0];
  const std::int64_t in_h = input.shape()[2], in_w = input.shape()[3];
  const std::int64_t out_h = tensor::conv_out_dim(in_h, kernel_, stride_, pad_);
  const std::int64_t out_w = tensor::conv_out_dim(in_w, kernel_, stride_, pad_);

  if (training) cached_input_ = input;

  // Delegates to forward_into so both training paths execute the exact same
  // kernel.  A duplicated scalar loop is only bitwise-equal by codegen luck:
  // FMA contraction is per-loop, and -march=native builds rounded the two
  // copies differently for kernel 5 (caught by the bench parity gate).
  Tensor output(Shape{batch, channels_, out_h, out_w});
  Workspace& ws = legacy_train_workspace();
  forward_into(input.view(), output.view(), ws);
  return output;
}

void DepthwiseConv2d::forward_into(const TensorView& in, TensorView out,
                                   Workspace& scratch) {
  forward_epilogue(in, out, scratch, Epilogue{});
}

void DepthwiseConv2d::forward_epilogue(const TensorView& in, TensorView out,
                                       Workspace& scratch,
                                       const Epilogue& post) {
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  const std::int64_t batch = in.shape()[0];
  const DwGeometry g = dw_geometry(*this, in.shape());
  assert(out.shape() == Shape({batch, channels_, g.out_h, g.out_w}));
  Workspace::Frame frame(scratch);
  dw_forward(g, batch, in.data(), weight_.value.data(), post, out.data(),
             scratch.alloc(g.scratch()));
}

std::int64_t DepthwiseConv2d::scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  return dw_geometry(*this, input).scratch() +
         static_cast<std::int64_t>(Workspace::kAlignFloats);
}

std::int64_t DepthwiseConv2d::train_scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  const std::int64_t chunks =
      util::chunk_count(0, input[0], kTrainSampleGrain);
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  // forward_train_into is forward_into; its padded copy is released before
  // backward_into carves the per-chunk dW partials.
  return std::max(scratch_floats(input),
                  chunks * (channels_ * kernel_ * kernel_ + align));
}

void DepthwiseConv2d::backward_into(const TensorView& in,
                                    const TensorView& grad_out,
                                    TensorView grad_in, Workspace& ws) {
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  const std::int64_t batch = in.shape()[0];
  const std::int64_t in_h = in.shape()[2], in_w = in.shape()[3];
  const std::int64_t out_h = grad_out.shape()[2], out_w = grad_out.shape()[3];
  assert(grad_out.shape() ==
         Shape({batch, channels_, out_h, out_w}));
  assert(grad_in.shape() == in.shape());

  const std::int64_t w_numel = channels_ * kernel_ * kernel_;
  const std::int64_t chunks = util::chunk_count(0, batch, kTrainSampleGrain);
  const std::int64_t sample_stride = channels_ * in_h * in_w;

  // Same chunked-partial scheme as Conv2d::backward_into: per-chunk dW
  // buffers (allocated serially — Workspace is not thread-safe) reduced in
  // chunk-index order; grad_in rows are disjoint per sample.
  Workspace::Frame frame(ws);
  std::vector<float*> dw(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) {
    dw[c] = ws.alloc(w_numel);
    std::memset(dw[c], 0, static_cast<std::size_t>(w_numel) * sizeof(float));
  }

  // Interior output columns, where every kernel tap lands in-bounds:
  //   ow*stride - pad >= 0             -> ow >= ceil(pad / stride)
  //   ow*stride - pad + kernel <= in_w -> ow <  (in_w - kernel + pad)/stride + 1
  // so the hot path runs tap-major with no bounds checks — a vector dot per
  // tap for dW and a shifted saxpy for dX.
  const std::int64_t ow_lo = std::min(out_w, (pad_ + stride_ - 1) / stride_);
  const std::int64_t ow_hi =
      std::max(ow_lo, std::min(out_w, (in_w - kernel_ + pad_) / stride_ + 1));

  util::parallel_for_chunks(0, batch, kTrainSampleGrain,
                            [&](std::int64_t ci, std::int64_t nb,
                                std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      float* gin_sample = grad_in.data() + n * sample_stride;
      std::memset(gin_sample, 0,
                  static_cast<std::size_t>(sample_stride) * sizeof(float));
      for (std::int64_t c = 0; c < channels_; ++c) {
        const float* in_plane = in.data() + (n * channels_ + c) * in_h * in_w;
        const float* gout_plane =
            grad_out.data() + (n * channels_ + c) * out_h * out_w;
        const float* w = weight_.value.data() + c * kernel_ * kernel_;
        float* gw = dw[ci] + c * kernel_ * kernel_;
        float* gin_plane = gin_sample + c * in_h * in_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih0 = oh * stride_ - pad_;
          const float* g_row = gout_plane + oh * out_w;
          // Border columns (and clipped rows) take the guarded per-output
          // path; the accumulation order within each gw/gin element is
          // fixed by the loop structure, so the result is deterministic
          // and thread-count invariant (samples are chunk-disjoint).
          const auto guarded = [&](std::int64_t w0, std::int64_t w1) {
            for (std::int64_t ow = w0; ow < w1; ++ow) {
              const float g = g_row[ow];
              if (g == 0.0f) continue;
              for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                const std::int64_t ih = ih0 + kh;
                if (ih < 0 || ih >= in_h) continue;
                for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t iw = ow * stride_ - pad_ + kw;
                  if (iw < 0 || iw >= in_w) continue;
                  gw[kh * kernel_ + kw] += g * in_plane[ih * in_w + iw];
                  gin_plane[ih * in_w + iw] += g * w[kh * kernel_ + kw];
                }
              }
            }
          };
          if (ih0 >= 0 && ih0 + kernel_ <= in_h && ow_lo < ow_hi) {
            guarded(0, ow_lo);
            guarded(ow_hi, out_w);
            const std::int64_t count = ow_hi - ow_lo;
            const float* g_int = g_row + ow_lo;
            if (stride_ == 1 && (kernel_ == 3 || kernel_ == 5)) {
              const std::int64_t base = ow_lo - pad_;
              for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                const float* src = in_plane + (ih0 + kh) * in_w + base;
                float* dst = gin_plane + (ih0 + kh) * in_w + base;
                if (kernel_ == 3) {
                  dw_bwd_row_s1<3>(g_int, src, dst, w + kh * 3, gw + kh * 3,
                                   count);
                } else {
                  dw_bwd_row_s1<5>(g_int, src, dst, w + kh * 5, gw + kh * 5,
                                   count);
                }
              }
            } else {
              for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                const float* src_row = in_plane + (ih0 + kh) * in_w;
                float* gin_row = gin_plane + (ih0 + kh) * in_w;
                for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t off = ow_lo * stride_ - pad_ + kw;
                  const float wv = w[kh * kernel_ + kw];
                  if (stride_ == 1) {
                    gw[kh * kernel_ + kw] +=
                        tensor::dot(g_int, src_row + off, count);
                    float* dst = gin_row + off;
                    for (std::int64_t i = 0; i < count; ++i)
                      dst[i] += wv * g_int[i];
                  } else {
                    float sum = 0.0f;
                    const float* src = src_row + off;
                    float* dst = gin_row + off;
                    for (std::int64_t i = 0; i < count; ++i) {
                      sum += g_int[i] * src[i * stride_];
                      dst[i * stride_] += wv * g_int[i];
                    }
                    gw[kh * kernel_ + kw] += sum;
                  }
                }
              }
            }
          } else {
            guarded(0, out_w);
          }
        }
      }
    }
  });

  float* wg = weight_.grad.data();
  for (std::int64_t c = 0; c < chunks; ++c) {
    const float* part = dw[c];
    for (std::int64_t i = 0; i < w_numel; ++i) wg[i] += part[i];
  }
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw TrainingStateError(name() +
                             "::backward before forward(training=true)");
  if (grad_output.shape() != output_shape(cached_input_.shape()))
    throw TrainingStateError(name() + "::backward: grad_output shape " +
                             grad_output.shape().to_string() +
                             " does not match the cached batch " +
                             cached_input_.shape().to_string());
  Tensor grad_input(cached_input_.shape());
  Workspace& ws = legacy_train_workspace();
  ws.reset();
  backward_into(cached_input_.view(), grad_output.view(), grad_input.view(),
                ws);
  return grad_input;
}

std::vector<Param*> DepthwiseConv2d::params() { return {&weight_}; }

Shape DepthwiseConv2d::output_shape(const Shape& input) const {
  assert(input.rank() == 4);
  return Shape{input[0], channels_,
               tensor::conv_out_dim(input[2], kernel_, stride_, pad_),
               tensor::conv_out_dim(input[3], kernel_, stride_, pad_)};
}

std::string DepthwiseConv2d::name() const {
  return "DepthwiseConv2d(" + std::to_string(channels_) +
         ", k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) + ")";
}

std::int64_t DepthwiseConv2d::macs_per_sample(const Shape& input_chw) const {
  assert(input_chw.rank() == 3);
  const std::int64_t out_h = tensor::conv_out_dim(input_chw[1], kernel_, stride_, pad_);
  const std::int64_t out_w = tensor::conv_out_dim(input_chw[2], kernel_, stride_, pad_);
  return channels_ * out_h * out_w * kernel_ * kernel_;
}

}  // namespace nshd::nn
