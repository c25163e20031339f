#include "fpna/dl/row_forward.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "fpna/fp/accumulator.hpp"
#include "parallel_blocks.hpp"

namespace fpna::dl {

using detail::kNativeSerialF32;

void linear_row(std::span<const float> x, const Matrix& weight,
                std::span<float> out, const core::EvalContext& ctx) {
  if (weight.dim() != 2) {
    throw std::invalid_argument("linear_row: expected rank-2 weight");
  }
  const std::int64_t k = weight.size(0), n = weight.size(1);
  if (static_cast<std::int64_t>(x.size()) != k ||
      static_cast<std::int64_t>(out.size()) != n) {
    throw std::invalid_argument("linear_row: shape mismatch");
  }
  fp::visit_reduction<float>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        if constexpr (kNativeSerialF32<Acc, decltype(quantize)>) {
          // matmul's i-p-j in-place fold for one i, seeded by the fresh
          // zero output matmul writes into.
          for (std::int64_t j = 0; j < n; ++j) out[j] = 0.0f;
          for (std::int64_t p = 0; p < k; ++p) {
            const float av = x[static_cast<std::size_t>(p)];
            if (av == 0.0f) continue;
            const std::int64_t wrow = p * n;
            for (std::int64_t j = 0; j < n; ++j) {
              out[static_cast<std::size_t>(j)] += av * weight.flat(wrow + j);
            }
          }
        } else {
          // matmul's accumulator branch for one row: both operands
          // storage-quantized, the sparsity skip on the quantized av, one
          // unseeded accumulator per output unit, p ascending.
          std::vector<Acc> row(static_cast<std::size_t>(n));
          for (std::int64_t p = 0; p < k; ++p) {
            const float av = quantize(x[static_cast<std::size_t>(p)]);
            if (av == 0.0f) continue;
            const std::int64_t wrow = p * n;
            for (std::int64_t j = 0; j < n; ++j) {
              row[static_cast<std::size_t>(j)].add(
                  static_cast<A>(av * quantize(weight.flat(wrow + j))));
            }
          }
          for (std::int64_t j = 0; j < n; ++j) {
            out[static_cast<std::size_t>(j)] = static_cast<float>(
                row[static_cast<std::size_t>(j)].result());
          }
        }
      });
}

void log_softmax_row(std::span<float> row) {
  if (row.empty()) {
    throw std::invalid_argument("log_softmax_row: empty row");
  }
  float row_max = row[0];
  for (std::size_t c = 1; c < row.size(); ++c) {
    row_max = std::max(row_max, row[c]);
  }
  float sum = 0.0f;
  for (const float v : row) sum += std::exp(v - row_max);
  const float log_z = row_max + std::log(sum);
  for (float& v : row) v -= log_z;
}

void relu_row(std::span<float> row) {
  for (float& v : row) v = v > 0.0f ? v : 0.0f;
}

}  // namespace fpna::dl
