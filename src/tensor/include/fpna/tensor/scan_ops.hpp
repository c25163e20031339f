#pragma once
// cumsum (prefix sum) with deterministic and non-deterministic
// implementations. PyTorch lists cumsum among the CUDA ops that may be
// non-deterministic: the device computes a two-level (blocked) scan and
// combines block aggregates in an order the scheduler chooses. The value
// set is fixed; the *association order* of the block offsets varies, which
// is what perturbs rounding.

#include <cstdint>

#include "fpna/core/eval_context.hpp"
#include "fpna/tensor/tensor.hpp"

namespace fpna::tensor {

/// Prefix sum along `dim`. Deterministic path: serial scan per line.
/// Non-deterministic path: blocked scan with `scan_blocks` blocks per
/// line; each block's offset is the sum of the preceding block aggregates
/// added in a scheduler-dependent order.
template <typename T>
Tensor<T> cumsum(const Tensor<T>& self, std::int64_t dim,
                 const core::EvalContext& ctx = {},
                 std::size_t scan_blocks = 32);

}  // namespace fpna::tensor
