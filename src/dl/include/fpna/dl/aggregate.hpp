#pragma once
// Neighbour aggregation's one kernel, shared by training and serving.
//
// An output row is the sum of a list of table rows, folded in list order:
// per column, one stream seeded with the zero destination and fed the
// listed rows' values through the context's fp::ReductionSpec. This is
// exactly the per-destination stream of the deterministic
// tensor::index_add (zero self value, contributions in issue order), so
// the full-graph layers (mean_aggregate and its backward, over a
// Graph's CSR grouping) and the serving runtime's per-request rows fold
// the same bits - for every algorithm, dtype and lane spec, with or
// without a pool (certified against the index_add composition in
// dl_test).
//
// The native serial spec folds in place from 0.0f, row-major; every
// other spec seeds one accumulator per column with quantize(0.0f) (the
// zero destination counts as an element - Pairwise's block boundaries
// depend on it) and adds quantize(value) per listed row. An empty list
// writes zeros (index_add leaves a destination without contributions
// untouched).

#include <cstdint>
#include <span>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/graph.hpp"
#include "fpna/dl/linalg.hpp"

namespace fpna::dl {

/// out[c] = (sum over ids, in list order, of table[id, c]) times the
/// float 1/ids.size() - the row sum, then the mean's float reciprocal
/// multiply. An empty list writes zeros. Throws std::out_of_range on an
/// id outside the table.
void mean_rows_into(const Matrix& table, std::span<const std::int64_t> ids,
                    std::span<float> out, const core::EvalContext& ctx);

/// Row v = the row sum of table over groups.of(v), for every node v,
/// row-blocked on ctx.pool (rows are independent, so pooled execution is
/// bitwise serial). `table` holds one row per node.
Matrix sum_grouped_rows(const Matrix& table, const Adjacency& groups,
                        const core::EvalContext& ctx);

/// Row v = mean_rows_into(table, groups.of(v)) for every node v.
Matrix mean_grouped_rows(const Matrix& table, const Adjacency& groups,
                         const core::EvalContext& ctx);

}  // namespace fpna::dl
