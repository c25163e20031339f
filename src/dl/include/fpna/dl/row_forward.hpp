#pragma once
// Row-wise forward kernels: the per-request building blocks of the
// batch-invariant inference server (src/serve).
//
// Each function computes ONE output row as a pure function of that row's
// inputs, the weights and the context's fp::ReductionSpec. Every inner
// reduction is a per-row stream - one accumulator per output unit fed in
// a fixed input order - so nothing about the result can depend on which
// batch the row rides in, how large that batch is, or which thread runs
// it. This is the "reduction boundaries derive from the row, never the
// batch" construction the serving determinism contract rests on.
//
// The loops deliberately mirror the full-matrix kernels element for
// element (matmul's ascending-k stream with its av == 0.0f sparsity skip,
// log_softmax's row max/exp/serial-sum), so serving a deployed node
// reproduces the offline full-graph forward's row bitwise - for every
// algorithm, dtype and lane spec (certified in serve_test). Neighbour
// aggregation needs no mirror: training and serving call the same
// kernel (dl/aggregate.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/dl/model.hpp"

namespace fpna::dl {

/// out[j] = dot(x, W[:, j]) for j in [0, W.cols) - one row of dl::matmul,
/// overwriting `out`. Each output unit folds x[p] * W[p, j] in ascending p
/// through the spec's accumulator with the same storage quantization of
/// both operands and the same quantized-av == 0.0f sparsity skip as the
/// full kernel; the native serial spec folds in place from 0.0f exactly
/// like matmul's zero-initialised output. Composition (bias +=, the float
/// add() between the self and neighbour branches) is the caller's job,
/// mirroring SageConv::forward's op sequence.
void linear_row(std::span<const float> x, const Matrix& weight,
                std::span<float> out, const core::EvalContext& ctx);

/// In-place row log-softmax: bitwise the one-row case of
/// log_softmax_rows (row max, float exp-sum, subtract log-normaliser).
void log_softmax_row(std::span<float> row);

/// In-place ReLU on one row.
void relu_row(std::span<float> row);

}  // namespace fpna::dl
