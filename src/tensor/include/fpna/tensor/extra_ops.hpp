#pragma once
// Companion operations to the paper's Table 5 set, rounding out the
// operator audit:
//
//  * index_select - the deterministic gather (its *backward* is an
//    index_add, which is where PyTorch's documented non-determinism for
//    gather-like ops actually lives);
//  * embedding_bag - per-bag sum/mean aggregation (the DLRM/recsys
//    workhorse); its reduction is an atomic scatter like index_add, so it
//    has a D and an ND path;
//  * bincount / histc - counting ops built on *integer* atomics. Integer
//    addition is associative, so these are bitwise deterministic under
//    ANY commit order: the library exercises their ND scheduling path and
//    certifies the output unchanged, an instructive contrast with the
//    floating-point ops.

#include <cstdint>

#include "fpna/core/eval_context.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/tensor.hpp"

namespace fpna::tensor {

/// out[k, ...] = self[index[k], ...] along `dim`. Pure gather:
/// deterministic regardless of context.
template <typename T>
Tensor<T> index_select(const Tensor<T>& self, std::int64_t dim,
                       const Tensor<std::int64_t>& index);

/// Gradient of index_select w.r.t. self: scatter `grad_out` rows back to
/// the gathered positions - an index_add, i.e. non-deterministic on the
/// ND path exactly like PyTorch's gather/index_select backward.
template <typename T>
Tensor<T> index_select_backward(const Tensor<T>& grad_out, std::int64_t dim,
                                const Tensor<std::int64_t>& index,
                                const Shape& self_shape,
                                const core::EvalContext& ctx = {});

enum class BagMode { kSum, kMean };

/// embedding_bag: for bag b covering indices[offsets[b] .. offsets[b+1]),
/// out[b, :] = reduce over weight[indices[j], :]. `offsets` must start at
/// 0, be non-decreasing, and end at most at indices count (trailing bags
/// may be empty -> zero rows).
template <typename T>
Tensor<T> embedding_bag(const Tensor<T>& weight,
                        const Tensor<std::int64_t>& indices,
                        const Tensor<std::int64_t>& offsets, BagMode mode,
                        const core::EvalContext& ctx = {});

/// Counts occurrences of each value in [0, minlength-1] (extended if the
/// data needs more bins). Integer accumulation: deterministic even when
/// an ND context is supplied (certified in tests).
Tensor<std::int64_t> bincount(const Tensor<std::int64_t>& values,
                              std::int64_t minlength = 0,
                              const core::EvalContext& ctx = {});

/// Histogram of float values over [lo, hi) with `bins` equal bins
/// (PyTorch histc). Bin *selection* is FP but per-element; counts are
/// integers: deterministic under any commit order.
template <typename T>
Tensor<std::int64_t> histc(const Tensor<T>& values, std::int64_t bins,
                           T lo, T hi, const core::EvalContext& ctx = {});

}  // namespace fpna::tensor
