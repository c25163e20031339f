#include "fpna/dl/aggregate.hpp"

#include <algorithm>
#include <stdexcept>

#include "fpna/fp/accumulator.hpp"
#include "parallel_blocks.hpp"

namespace fpna::dl {

namespace {

/// The aggregation stream for one output row (see aggregate.hpp): `out`
/// (cols wide) receives the fold of the rows of `table` listed in `ids`.
template <typename Acc, typename A, typename Quant>
void fold_rows(const float* __restrict table, std::int64_t cols,
               std::span<const std::int64_t> ids, float* __restrict out,
               Quant quantize) {
  if (ids.empty()) {
    std::fill(out, out + cols, 0.0f);
    return;
  }
  if constexpr (detail::kNativeSerialF32<Acc, Quant>) {
    std::fill(out, out + cols, 0.0f);
    for (const std::int64_t id : ids) {
      const float* __restrict row = table + id * cols;
      for (std::int64_t c = 0; c < cols; ++c) out[c] += row[c];
    }
  } else {
    for (std::int64_t c = 0; c < cols; ++c) {
      Acc acc;
      acc.add(static_cast<A>(quantize(0.0f)));
      for (const std::int64_t id : ids) {
        acc.add(static_cast<A>(quantize(table[id * cols + c])));
      }
      out[c] = static_cast<float>(acc.result());
    }
  }
}

/// mean_rows_into's epilogue: the float 1/n multiply of a non-empty row.
void scale_by_inverse_count(float* out, std::int64_t cols, std::size_t n) {
  if (n == 0) return;
  const float inv = 1.0f / static_cast<float>(n);
  for (std::int64_t c = 0; c < cols; ++c) out[c] *= inv;
}

Matrix grouped_rows(const Matrix& table, const Adjacency& groups,
                    const core::EvalContext& ctx, bool mean) {
  if (table.dim() != 2) {
    throw std::invalid_argument("grouped rows: expected rank-2 table");
  }
  const auto rows = static_cast<std::int64_t>(groups.offsets.size()) - 1;
  if (table.size(0) != rows) {
    throw std::invalid_argument("grouped rows: table rows != grouped nodes");
  }
  const std::int64_t cols = table.size(1);
  Matrix out(tensor::Shape{rows, cols}, 0.0f);
  const float* src = table.data().data();
  float* dst = out.data().data();
  // Work per row: the average neighbour count times the width.
  const std::int64_t work_per_row =
      cols * std::max<std::int64_t>(
                 1, static_cast<std::int64_t>(groups.neighbors.size()) /
                        std::max<std::int64_t>(1, rows));
  fp::visit_reduction<float>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        detail::for_each_row_block(
            ctx, rows, work_per_row,
            [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t v = r0; v < r1; ++v) {
                const auto ids = groups.of(v);
                float* row = dst + v * cols;
                fold_rows<Acc, A>(src, cols, ids, row, quantize);
                if (mean) scale_by_inverse_count(row, cols, ids.size());
              }
            },
            "dl.aggregate.block");
      });
  return out;
}

}  // namespace

void mean_rows_into(const Matrix& table, std::span<const std::int64_t> ids,
                    std::span<float> out, const core::EvalContext& ctx) {
  if (table.dim() != 2) {
    throw std::invalid_argument("mean_rows_into: expected rank-2 table");
  }
  const std::int64_t cols = table.size(1);
  if (static_cast<std::int64_t>(out.size()) != cols) {
    throw std::invalid_argument("mean_rows_into: output width mismatch");
  }
  for (const std::int64_t id : ids) {
    if (id < 0 || id >= table.size(0)) {
      throw std::out_of_range("mean_rows_into: row id out of range");
    }
  }
  fp::visit_reduction<float>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        fold_rows<Acc, A>(table.data().data(), cols, ids, out.data(),
                          quantize);
      });
  scale_by_inverse_count(out.data(), cols, ids.size());
}

Matrix sum_grouped_rows(const Matrix& table, const Adjacency& groups,
                        const core::EvalContext& ctx) {
  return grouped_rows(table, groups, ctx, /*mean=*/false);
}

Matrix mean_grouped_rows(const Matrix& table, const Adjacency& groups,
                         const core::EvalContext& ctx) {
  return grouped_rows(table, groups, ctx, /*mean=*/true);
}

}  // namespace fpna::dl
