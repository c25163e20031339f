#pragma once
// The indexed tensor operations from the paper's Table 5, each with a
// deterministic and a non-deterministic implementation:
//
//   index_add, index_copy, index_put, scatter, scatter_reduce
//
// The non-deterministic path reproduces the structure of the CUDA kernels
// PyTorch documents as non-deterministic: one atomic update per source
// element, committed in a scheduler-dependent order. For accumulating ops
// the order changes rounding; for writing ops duplicate indices make the
// last writer scheduler-dependent.

#include <cstdint>

#include "fpna/core/eval_context.hpp"
#include "fpna/tensor/tensor.hpp"

namespace fpna::tensor {

/// Reduction modes of scatter_reduce (PyTorch naming).
enum class Reduce { kSum, kMean, kProd, kAmax, kAmin };
const char* to_string(Reduce reduce) noexcept;

/// out = self; out[.., index[k], ..] += alpha * source[.., k, ..] along
/// `dim` (slice-wise). index.numel() must equal source.size(dim). The
/// deterministic path runs on ctx.pool when one is set (parallel_for over
/// destination groups, bitwise identical to the serial deterministic path
/// for every registered accumulator).
template <typename T>
Tensor<T> index_add(const Tensor<T>& self, std::int64_t dim,
                    const Tensor<std::int64_t>& index,
                    const Tensor<T>& source, T alpha = T{1},
                    const core::EvalContext& ctx = {});

/// out = self; out[.., index[k], ..] = source[.., k, ..]. With duplicate
/// indices the result depends on write order: deterministically the
/// highest k wins; non-deterministically the last commit wins.
template <typename T>
Tensor<T> index_copy(const Tensor<T>& self, std::int64_t dim,
                     const Tensor<std::int64_t>& index,
                     const Tensor<T>& source,
                     const core::EvalContext& ctx = {});

/// Flat-index put over dim 0 slices: out[indices[k]] = values[k], or
/// accumulate (+=) when `accumulate` is true.
template <typename T>
Tensor<T> index_put(const Tensor<T>& self, const Tensor<std::int64_t>& indices,
                    const Tensor<T>& values, bool accumulate,
                    const core::EvalContext& ctx = {});

/// out = self; out[index[p] along dim, rest of p] = src[p] for every
/// position p of src (PyTorch scatter: index has the shape of src).
template <typename T>
Tensor<T> scatter(const Tensor<T>& self, std::int64_t dim,
                  const Tensor<std::int64_t>& index, const Tensor<T>& src,
                  const core::EvalContext& ctx = {});

/// PyTorch scatter_reduce: reduce src values into self at the indexed
/// positions. include_self=false seeds each touched destination from its
/// first contribution instead of the self value.
template <typename T>
Tensor<T> scatter_reduce(const Tensor<T>& self, std::int64_t dim,
                         const Tensor<std::int64_t>& index,
                         const Tensor<T>& src, Reduce reduce,
                         bool include_self = true,
                         const core::EvalContext& ctx = {});

}  // namespace fpna::tensor
