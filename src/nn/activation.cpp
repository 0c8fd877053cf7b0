#include "nn/activation.hpp"

#include <cassert>
#include <cmath>

#include "tensor/epilogue.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

const char* to_string(Activation act) {
  switch (act) {
    case Activation::kReLU: return "ReLU";
    case Activation::kReLU6: return "ReLU6";
    case Activation::kSiLU: return "SiLU";
    case Activation::kSigmoid: return "Sigmoid";
  }
  return "?";
}

float activate_grad(Activation act, float x) {
  switch (act) {
    case Activation::kReLU: return x > 0.0f ? 1.0f : 0.0f;
    case Activation::kReLU6: return (x > 0.0f && x < 6.0f) ? 1.0f : 0.0f;
    case Activation::kSiLU: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f + x * (1.0f - s));
    }
    case Activation::kSigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f - s);
    }
  }
  return 0.0f;
}

Tensor ActivationLayer::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor output(input.shape());
  // The scalar reference the vector forward_into and fused epilogues match.
  const float* in = input.data();
  float* out = output.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) out[i] = activate(act_, in[i]);
  return output;
}

void ActivationLayer::forward_into(const TensorView& in, TensorView out,
                                   Workspace& scratch) {
  (void)scratch;
  assert(out.numel() == in.numel());
  // The epilogue a fused conv applies, with no per-channel terms: ReLU and
  // ReLU6 vectorize with activate()'s NaN/-0 semantics, SiLU and Sigmoid
  // evaluate activate() per lane.
  tensor::Epilogue e;
  e.has_act = true;
  e.act = act_;
  tensor::epilogue_run(e, 0, in.data(), out.data(), in.numel());
}

void ActivationLayer::backward_into(const TensorView& in,
                                    const TensorView& grad_out,
                                    TensorView grad_in, Workspace& ws) {
  (void)ws;
  assert(grad_out.numel() == in.numel() && grad_in.numel() == in.numel());
  const float* src = in.data();
  const float* gout = grad_out.data();
  float* gin = grad_in.data();
  // One write per element and no accumulation, so chunking over elements is
  // trivially bitwise thread-invariant.  Each branch applies the exact
  // scalar expression of activate_grad(), dispatch hoisted like forward_into.
  switch (act_) {
    case Activation::kReLU:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          gin[i] = gout[i] * (src[i] > 0.0f ? 1.0f : 0.0f);
      });
      break;
    case Activation::kReLU6:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          gin[i] = gout[i] * ((src[i] > 0.0f && src[i] < 6.0f) ? 1.0f : 0.0f);
      });
      break;
    case Activation::kSiLU:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float x = src[i];
          const float s = 1.0f / (1.0f + std::exp(-x));
          gin[i] = gout[i] * (s * (1.0f + x * (1.0f - s)));
        }
      });
      break;
    case Activation::kSigmoid:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float x = src[i];
          const float s = 1.0f / (1.0f + std::exp(-x));
          gin[i] = gout[i] * (s * (1.0f - s));
        }
      });
      break;
  }
}

Tensor ActivationLayer::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw TrainingStateError(name() +
                             "::backward before forward(training=true)");
  if (grad_output.shape() != cached_input_.shape())
    throw TrainingStateError(name() + "::backward: grad_output shape " +
                             grad_output.shape().to_string() +
                             " does not match the cached batch " +
                             cached_input_.shape().to_string());
  Tensor grad_input(grad_output.shape());
  Workspace& ws = legacy_train_workspace();
  ws.reset();
  backward_into(cached_input_.view(), grad_output.view(), grad_input.view(), ws);
  return grad_input;
}

}  // namespace nshd::nn
