#pragma once
// Transposed convolutions (ConvTranspose1d/2d/3d), the remaining ops in
// the paper's Table 5. A transposed convolution is inherently a
// *scatter*: every input element distributes stride-spaced contributions
// into the output, which is why cuDNN's implementations use atomicAdd and
// appear in PyTorch's non-deterministic list. The ND path here commits
// the input-tap contributions in scheduler order; the D path fixes the
// loop order.
//
// Layouts follow PyTorch: input [N, C_in, spatial...], weight
// [C_in, C_out, kernel...], bias [C_out], output [N, C_out, spatial_out...]
// with spatial_out = (in-1)*stride - 2*padding + dilation*(kernel-1)
//                    + output_padding + 1.

#include <array>
#include <cstdint>
#include <type_traits>

#include "fpna/core/eval_context.hpp"
#include "fpna/tensor/tensor.hpp"

namespace fpna::tensor {

template <std::size_t Rank>
struct ConvTransposeParams {
  std::array<std::int64_t, Rank> stride;
  std::array<std::int64_t, Rank> padding;
  std::array<std::int64_t, Rank> output_padding;
  std::array<std::int64_t, Rank> dilation;

  ConvTransposeParams() {
    stride.fill(1);
    padding.fill(0);
    output_padding.fill(0);
    dilation.fill(1);
  }
};

template <typename T>
Tensor<T> conv_transpose1d(const Tensor<T>& input, const Tensor<T>& weight,
                           const std::type_identity_t<Tensor<T>>* bias = nullptr,
                           const ConvTransposeParams<1>& params = {},
                           const core::EvalContext& ctx = {});

template <typename T>
Tensor<T> conv_transpose2d(const Tensor<T>& input, const Tensor<T>& weight,
                           const std::type_identity_t<Tensor<T>>* bias = nullptr,
                           const ConvTransposeParams<2>& params = {},
                           const core::EvalContext& ctx = {});

template <typename T>
Tensor<T> conv_transpose3d(const Tensor<T>& input, const Tensor<T>& weight,
                           const std::type_identity_t<Tensor<T>>* bias = nullptr,
                           const ConvTransposeParams<3>& params = {},
                           const core::EvalContext& ctx = {});

/// Output spatial extent for one dimension.
inline std::int64_t conv_transpose_out_size(std::int64_t in,
                                            std::int64_t kernel,
                                            std::int64_t stride,
                                            std::int64_t padding,
                                            std::int64_t output_padding,
                                            std::int64_t dilation) {
  return (in - 1) * stride - 2 * padding + dilation * (kernel - 1) +
         output_padding + 1;
}

}  // namespace fpna::tensor
