#include "fpna/tensor/conv_transpose.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "fpna/sim/scheduler.hpp"

namespace fpna::tensor {

namespace {

/// One atomic update of the scatter formulation: out[dst] += value, where
/// value = input[i] * weight[w] is computed deterministically (products
/// commute with scheduling; only the accumulation order varies).
template <typename T>
struct AddContribution {
  std::int64_t dst;
  T value;
};

/// Rank-generic transposed convolution. Builds the full contribution list
/// then applies it in commit order (identity for deterministic runs).
template <typename T, std::size_t Rank>
Tensor<T> conv_transpose_impl(const Tensor<T>& input, const Tensor<T>& weight,
                              const Tensor<T>* bias,
                              const ConvTransposeParams<Rank>& params,
                              const core::EvalContext& ctx, const char* op) {
  constexpr auto kRank = static_cast<std::int64_t>(Rank);
  if (input.dim() != kRank + 2) {
    throw std::invalid_argument(std::string(op) + ": input must be rank " +
                                std::to_string(kRank + 2) +
                                " [N, C_in, spatial...]");
  }
  if (weight.dim() != kRank + 2) {
    throw std::invalid_argument(std::string(op) + ": weight must be rank " +
                                std::to_string(kRank + 2) +
                                " [C_in, C_out, kernel...]");
  }
  const std::int64_t batch = input.size(0);
  const std::int64_t c_in = input.size(1);
  const std::int64_t c_out = weight.size(1);
  if (weight.size(0) != c_in) {
    throw std::invalid_argument(std::string(op) +
                                ": weight C_in mismatch with input");
  }
  if (bias != nullptr && bias->numel() != c_out) {
    throw std::invalid_argument(std::string(op) + ": bias size != C_out");
  }

  std::array<std::int64_t, Rank> in_size{};
  std::array<std::int64_t, Rank> kernel{};
  std::array<std::int64_t, Rank> out_size{};
  for (std::size_t d = 0; d < Rank; ++d) {
    in_size[d] = input.size(2 + static_cast<std::int64_t>(d));
    kernel[d] = weight.size(2 + static_cast<std::int64_t>(d));
    out_size[d] = conv_transpose_out_size(in_size[d], kernel[d],
                                          params.stride[d], params.padding[d],
                                          params.output_padding[d],
                                          params.dilation[d]);
    if (out_size[d] <= 0) {
      throw std::invalid_argument(std::string(op) +
                                  ": non-positive output size at spatial dim " +
                                  std::to_string(d));
    }
  }

  Shape out_shape{batch, c_out};
  for (std::size_t d = 0; d < Rank; ++d) out_shape.push_back(out_size[d]);
  Tensor<T> out(out_shape, T{0});
  if (bias != nullptr) {
    // Bias is a per-channel initial value, applied before accumulation
    // (order-independent).
    std::vector<std::int64_t> coords(static_cast<std::size_t>(kRank) + 2, 0);
    for (std::int64_t f = 0; f < out.numel(); ++f) {
      std::int64_t tmp = f;
      for (std::size_t d = 0; d < out.strides().size(); ++d) {
        coords[d] = tmp / out.strides()[d];
        tmp %= out.strides()[d];
      }
      out.flat(f) = bias->flat(coords[1]);
    }
  }

  // Enumerate contributions in the deterministic reference order:
  // (n, c_in, spatial..., c_out, kernel...).
  std::vector<AddContribution<T>> contribs;
  contribs.reserve(static_cast<std::size_t>(input.numel()) *
                   static_cast<std::size_t>(c_out));

  std::array<std::int64_t, Rank> in_pos{};
  std::array<std::int64_t, Rank> tap{};
  std::vector<std::int64_t> in_coords(static_cast<std::size_t>(kRank) + 2, 0);
  std::vector<std::int64_t> w_coords(static_cast<std::size_t>(kRank) + 2, 0);
  std::vector<std::int64_t> out_coords(static_cast<std::size_t>(kRank) + 2, 0);

  const auto advance = [](std::array<std::int64_t, Rank>& idx,
                          const std::array<std::int64_t, Rank>& bound) {
    for (std::size_t d = Rank; d-- > 0;) {
      if (++idx[d] < bound[d]) return true;
      idx[d] = 0;
    }
    return false;
  };

  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t ci = 0; ci < c_in; ++ci) {
      in_pos.fill(0);
      do {
        in_coords[0] = n;
        in_coords[1] = ci;
        for (std::size_t d = 0; d < Rank; ++d) in_coords[2 + d] = in_pos[d];
        const T in_val = input.flat(input.offset(in_coords));
        if (in_val == T{0}) {
          // Zero contributions do not change the accumulation value in
          // any order; skipping them is an exact optimisation.
          continue;
        }
        for (std::int64_t co = 0; co < c_out; ++co) {
          tap.fill(0);
          do {
            bool in_bounds = true;
            for (std::size_t d = 0; d < Rank; ++d) {
              const std::int64_t o = in_pos[d] * params.stride[d] -
                                     params.padding[d] +
                                     tap[d] * params.dilation[d];
              if (o < 0 || o >= out_size[d]) {
                in_bounds = false;
                break;
              }
              out_coords[2 + d] = o;
            }
            if (!in_bounds) continue;
            w_coords[0] = ci;
            w_coords[1] = co;
            for (std::size_t d = 0; d < Rank; ++d) w_coords[2 + d] = tap[d];
            out_coords[0] = n;
            out_coords[1] = co;
            const T w_val = weight.flat(weight.offset(w_coords));
            contribs.push_back(
                {out.offset(out_coords), static_cast<T>(in_val * w_val)});
          } while (advance(tap, kernel));
        }
      } while (advance(in_pos, in_size));
    }
  }

  if (ctx.nondeterministic()) {
    const sim::Scheduler scheduler(ctx.effective_profile());
    const auto order =
        scheduler.atomic_commit_order(contribs.size(), ctx.run->rng());
    for (const std::size_t i : order) {
      out.flat(contribs[i].dst) =
          static_cast<T>(out.flat(contribs[i].dst) + contribs[i].value);
    }
  } else {
    for (const auto& c : contribs) {
      out.flat(c.dst) = static_cast<T>(out.flat(c.dst) + c.value);
    }
  }
  return out;
}

}  // namespace

template <typename T>
Tensor<T> conv_transpose1d(const Tensor<T>& input, const Tensor<T>& weight,
                           const std::type_identity_t<Tensor<T>>* bias,
                           const ConvTransposeParams<1>& params,
                           const core::EvalContext& ctx) {
  return conv_transpose_impl<T, 1>(input, weight, bias, params, ctx,
                                   "conv_transpose1d");
}

template <typename T>
Tensor<T> conv_transpose2d(const Tensor<T>& input, const Tensor<T>& weight,
                           const std::type_identity_t<Tensor<T>>* bias,
                           const ConvTransposeParams<2>& params,
                           const core::EvalContext& ctx) {
  return conv_transpose_impl<T, 2>(input, weight, bias, params, ctx,
                                   "conv_transpose2d");
}

template <typename T>
Tensor<T> conv_transpose3d(const Tensor<T>& input, const Tensor<T>& weight,
                           const std::type_identity_t<Tensor<T>>* bias,
                           const ConvTransposeParams<3>& params,
                           const core::EvalContext& ctx) {
  return conv_transpose_impl<T, 3>(input, weight, bias, params, ctx,
                                   "conv_transpose3d");
}

#define FPNA_INSTANTIATE_CONVT(T)                                             \
  template Tensor<T> conv_transpose1d<T>(const Tensor<T>&, const Tensor<T>&,  \
                                         const Tensor<T>*,                    \
                                         const ConvTransposeParams<1>&,       \
                                         const core::EvalContext&);           \
  template Tensor<T> conv_transpose2d<T>(const Tensor<T>&, const Tensor<T>&,  \
                                         const Tensor<T>*,                    \
                                         const ConvTransposeParams<2>&,       \
                                         const core::EvalContext&);           \
  template Tensor<T> conv_transpose3d<T>(const Tensor<T>&, const Tensor<T>&,  \
                                         const Tensor<T>*,                    \
                                         const ConvTransposeParams<3>&,       \
                                         const core::EvalContext&);

FPNA_INSTANTIATE_CONVT(float)
FPNA_INSTANTIATE_CONVT(double)

#undef FPNA_INSTANTIATE_CONVT

}  // namespace fpna::tensor
