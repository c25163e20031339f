#include "fpna/dl/linalg.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "fpna/fp/accumulator.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/thread_pool.hpp"
#include "parallel_blocks.hpp"

namespace fpna::dl {

using detail::for_each_row_block;
using detail::kNativeSerialF32;

namespace {

/// Fingerprint of rows [r0, r1) of a row-major matrix (read-only).
std::uint64_t row_range_bits(const Matrix& m, std::int64_t r0,
                             std::int64_t r1) {
  const std::int64_t n = m.size(1);
  obs::Fingerprint print;
  for (std::int64_t i = r0 * n; i < r1 * n; ++i) print.feed(m.flat(i));
  return print.value();
}

/// Execution-invariant row-block provenance: block boundaries come from
/// the same size-derived rule the pool dispatch uses, but are recomputed
/// here and fingerprinted from the *calling* thread in block order - so
/// serial, 2-thread and 8-thread runs of a deterministic kernel emit
/// byte-identical records (the thread-invariance obs_test relies on it).
void emit_row_block_provenance(obs::Recorder* recorder, const char* site,
                               const Matrix& c, std::int64_t work_per_row,
                               const std::string& spec) {
  if (recorder == nullptr) return;
  const std::int64_t rows = c.size(0);
  const auto ranges = core::even_chunks(
      static_cast<std::size_t>(rows),
      detail::size_derived_chunks(rows, work_per_row));
  for (std::size_t blk = 0; blk < ranges.size(); ++blk) {
    const auto [lo, hi] = ranges[blk];
    recorder->provenance(
        {site, "row_block", static_cast<std::int64_t>(blk), -1, spec,
         row_range_bits(c, static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi)),
         static_cast<std::uint64_t>((hi - lo) * c.size(1))});
  }
}

void require_rank2(const Matrix& m, const char* name) {
  if (m.dim() != 2) {
    throw std::invalid_argument(std::string(name) + ": expected rank-2");
  }
}

/// Storage-quantized view of an operand matrix: the identity quantizer
/// aliases the original (zero cost on the native paths); a real
/// quantizer materialises the quantized copy once per kernel call, so
/// the hot loops never re-quantize an element they re-read (matmul reads
/// every b element m times).
template <typename Quant>
const Matrix& maybe_quantized(const Matrix& m,
                              [[maybe_unused]] Quant quantize,
                              [[maybe_unused]] std::optional<Matrix>& store) {
  if constexpr (Quant::is_identity) {
    return m;
  } else {
    store.emplace(m);
    Matrix& q = *store;
    for (std::int64_t i = 0; i < q.numel(); ++i) {
      q.flat(i) = quantize(q.flat(i));
    }
    return q;
  }
}

/// Runtime-spec variant for callers outside a visit_reduction dispatch
/// (matmul_split_k quantizes once for all its chunks): materialises the
/// bf16 copy iff the storage dtype actually quantizes a float kernel.
const Matrix& maybe_quantized_for(const fp::ReductionSpec& spec,
                                  const Matrix& m,
                                  std::optional<Matrix>& store) {
  if (spec.storage != fp::Dtype::kBf16) return m;
  return maybe_quantized(m, fp::QuantizeBf16{}, store);
}

/// C[r, :] = sum over inner index q in [k_begin, k_end) of
/// A(r, q) * B[q, :], where A(r, q) = a.flat(r * a_row + q * a_col): the
/// one axpy-shaped GEMM kernel. matmul reads A row-major (a_row = k,
/// a_col = 1), matmul_transpose_a reads it transposed (a_row = 1,
/// a_col = k), and matmul_split_k runs one inner chunk per call.
/// Row-blocked over the output; per element the contributions fold in
/// ascending q order through the context's reduction spec, with the
/// native serial spec special-cased to the classic in-place r-q-j loop
/// (bitwise identical to the seed implementation, unit-stride over B and
/// C). A storage-quantized A(r, q) == 0.0f contributes nothing (the
/// sparsity skip every spec shares).
void matmul_k_range(Matrix& c, const Matrix& a, const Matrix& b,
                    std::int64_t a_row, std::int64_t a_col,
                    std::int64_t k_begin, std::int64_t k_end,
                    const core::EvalContext& ctx, const char* trace_name) {
  const std::int64_t n = c.size(1);
  fp::visit_reduction<float>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        std::optional<Matrix> qa_store, qb_store;
        const Matrix& qa = maybe_quantized(a, quantize, qa_store);
        const Matrix& qb = maybe_quantized(b, quantize, qb_store);
        for_each_row_block(ctx, c.size(0), (k_end - k_begin) * n,
                           [&](std::int64_t r0, std::int64_t r1) {
          if constexpr (kNativeSerialF32<Acc, decltype(quantize)>) {
            const float* __restrict pa = a.data().data();
            const float* __restrict pb = b.data().data();
            float* __restrict pc = c.data().data();
            for (std::int64_t r = r0; r < r1; ++r) {
              float* __restrict crow = pc + r * n;
              for (std::int64_t q = k_begin; q < k_end; ++q) {
                const float av = pa[r * a_row + q * a_col];
                if (av == 0.0f) continue;
                const float* __restrict brow = pb + q * n;
                for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
              }
            }
          } else {
            std::vector<Acc> row(static_cast<std::size_t>(n));
            for (std::int64_t r = r0; r < r1; ++r) {
              for (auto& acc : row) acc = Acc{};
              for (std::int64_t q = k_begin; q < k_end; ++q) {
                const float av = qa.flat(r * a_row + q * a_col);
                if (av == 0.0f) continue;  // same sparsity skip as serial
                const std::int64_t brow = q * n;
                for (std::int64_t j = 0; j < n; ++j) {
                  row[static_cast<std::size_t>(j)].add(
                      static_cast<A>(av * qb.flat(brow + j)));
                }
              }
              for (std::int64_t j = 0; j < n; ++j) {
                c.flat(r * n + j) = static_cast<float>(
                    row[static_cast<std::size_t>(j)].result());
              }
            }
          }
        }, trace_name);
      });
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b, const core::EvalContext& ctx) {
  require_rank2(a, "matmul(a)");
  require_rank2(b, "matmul(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul: inner mismatch");

  Matrix c(tensor::Shape{m, n}, 0.0f);
  {
    obs::Span span(ctx.recorder, "dl.matmul");
    span.arg("m", m);
    span.arg("k", k);
    span.arg("n", n);
    if (ctx.recorder != nullptr) {
      span.arg("spec", fp::to_string(ctx.reduction_in_effect()));
      ctx.recorder->metrics().counter("dl.matmul.calls").increment();
      ctx.recorder->metrics()
          .counter("dl.matmul.flops")
          .add(static_cast<std::uint64_t>(2 * m * k * n));
    }
    matmul_k_range(c, a, b, k, 1, 0, k, ctx, "dl.matmul.block");
  }
  if (ctx.recorder != nullptr) {
    const std::string spec = fp::to_string(ctx.reduction_in_effect());
    emit_row_block_provenance(ctx.recorder, "dl.matmul", c, k * n, spec);
    ctx.recorder->provenance({"dl.matmul", "result", -1, -1, spec,
                              row_range_bits(c, 0, m),
                              static_cast<std::uint64_t>(c.numel())});
  }
  return c;
}

Matrix matmul_transpose_a(const Matrix& a, const Matrix& b,
                          const core::EvalContext& ctx) {
  require_rank2(a, "matmul_transpose_a(a)");
  require_rank2(b, "matmul_transpose_a(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != m) {
    throw std::invalid_argument("matmul_transpose_a: outer mismatch");
  }
  // Output row p folds A's column p: the same ascending-i stream as the
  // seed's i-p-j loop per element, re-nested so one task owns a row.
  Matrix c(tensor::Shape{k, n}, 0.0f);
  matmul_k_range(c, a, b, 1, k, 0, m, ctx, "dl.matmul_transpose_a.block");
  return c;
}

Matrix matmul_transpose_b(const Matrix& a, const Matrix& b,
                          const core::EvalContext& ctx) {
  require_rank2(a, "matmul_transpose_b(a)");
  require_rank2(b, "matmul_transpose_b(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  if (b.size(1) != k) {
    throw std::invalid_argument("matmul_transpose_b: inner mismatch");
  }
  Matrix c(tensor::Shape{m, n}, 0.0f);
  fp::visit_reduction<float>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        std::optional<Matrix> qa_store, qb_store;
        const Matrix& qa = maybe_quantized(a, quantize, qa_store);
        const Matrix& qb = maybe_quantized(b, quantize, qb_store);
        for_each_row_block(ctx, m, k * n,
                           [&](std::int64_t r0, std::int64_t r1) {
          for (std::int64_t i = r0; i < r1; ++i) {
            const std::int64_t arow = i * k;
            const std::int64_t crow = i * n;
            for (std::int64_t j = 0; j < n; ++j) {
              const std::int64_t brow = j * k;
              if constexpr (kNativeSerialF32<Acc, decltype(quantize)>) {
                const float* __restrict pa = a.data().data() + arow;
                const float* __restrict pb = b.data().data() + brow;
                float acc = 0.0f;
                for (std::int64_t p = 0; p < k; ++p) acc += pa[p] * pb[p];
                c.data()[static_cast<std::size_t>(crow + j)] = acc;
              } else {
                Acc acc;
                for (std::int64_t p = 0; p < k; ++p) {
                  acc.add(static_cast<A>(qa.flat(arow + p) *
                                         qb.flat(brow + p)));
                }
                c.flat(crow + j) = static_cast<float>(acc.result());
              }
            }
          }
        }, "dl.matmul_transpose_b.block");
      });
  return c;
}

Matrix matmul_split_k(const Matrix& a, const Matrix& b, std::size_t splits,
                      const core::EvalContext& ctx) {
  require_rank2(a, "matmul_split_k(a)");
  require_rank2(b, "matmul_split_k(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) {
    throw std::invalid_argument("matmul_split_k: inner mismatch");
  }
  if (splits == 0) {
    throw std::invalid_argument("matmul_split_k: splits == 0");
  }
  const auto s = static_cast<std::int64_t>(
      std::min<std::size_t>(splits, static_cast<std::size_t>(
                                        std::max<std::int64_t>(1, k))));

  // Storage quantization is idempotent (a bf16 value re-rounds to
  // itself), so quantize the operands once here and hand the chunks a
  // native-storage spec - bitwise identical to quantizing inside every
  // chunk, without re-copying both matrices per split.
  core::EvalContext chunk_ctx = ctx;
  std::optional<Matrix> qa_store, qb_store;
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  if (spec.storage == fp::Dtype::kBf16) {
    chunk_ctx.accumulator = fp::ReductionSpec{spec.algorithm, fp::Dtype::kNative,
                                              spec.accumulate, spec.lanes};
  }
  const Matrix& aa = maybe_quantized_for(spec, a, qa_store);
  const Matrix& bb = maybe_quantized_for(spec, b, qb_store);

  obs::Span span(ctx.recorder, "dl.matmul_split_k");
  span.arg("m", m);
  span.arg("k", k);
  span.arg("n", n);
  span.arg("splits", static_cast<std::int64_t>(s));
  const std::string spec_str =
      ctx.recorder != nullptr ? fp::to_string(spec) : std::string();

  // Per-chunk partials: contiguous near-even k ranges, each computed with
  // the deterministic kernel (pool and accumulator per ctx). Partials are
  // deterministic even on the non-deterministic path - only the combine
  // order below draws entropy - so their provenance records pin the
  // divergence search onto the combine steps.
  std::vector<Matrix> partials;
  partials.reserve(static_cast<std::size_t>(s));
  const std::int64_t base = k / s, rem = k % s;
  std::int64_t k_begin = 0;
  for (std::int64_t t = 0; t < s; ++t) {
    const std::int64_t k_end = k_begin + base + (t < rem ? 1 : 0);
    partials.emplace_back(tensor::Shape{m, n}, 0.0f);
    matmul_k_range(partials.back(), aa, bb, k, 1, k_begin, k_end, chunk_ctx,
                   "dl.matmul.block");
    if (ctx.recorder != nullptr) {
      ctx.recorder->provenance(
          {"dl.matmul_split_k", "partial", t, -1, spec_str,
           row_range_bits(partials.back(), 0, m),
           static_cast<std::uint64_t>(partials.back().numel())});
    }
    k_begin = k_end;
  }

  // Combine order: chunk order on the deterministic path, a fresh draw
  // from the run's entropy otherwise. One order per *call* - every
  // element re-associates the same way, as a k-split GEMM's fixed (but
  // schedule-dependent) reduction tree would.
  std::vector<std::size_t> order(static_cast<std::size_t>(s));
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (ctx.nondeterministic()) {
    order = util::random_permutation(order.size(), ctx.run->rng());
  }

  // The first partial is copied (so splits == 1 is bitwise matmul); the
  // rest fold in with plain float adds - the re-association under study.
  Matrix c = partials[order[0]];
  if (ctx.recorder == nullptr) {
    for_each_row_block(ctx, m, (s - 1) * n, [&](std::int64_t r0,
                                                std::int64_t r1) {
      for (std::size_t t = 1; t < order.size(); ++t) {
        const Matrix& part = partials[order[t]];
        for (std::int64_t i = r0 * n; i < r1 * n; ++i) {
          c.flat(i) += part.flat(i);
        }
      }
    });
    return c;
  }

  // Traced combine: one row-blocked pass per partial instead of one
  // fused pass, which exposes the running sum after every fold for a
  // per-step fingerprint. Bitwise identical to the fused loop - each
  // element still folds the partials in exactly order[1..s-1] sequence;
  // only the loop nest (and the number of pool barriers) changes. This
  // is the record the first-divergence localizer keys on: two runs with
  // different combine orders share every "partial" record and split at
  // combine step 0.
  ctx.recorder->provenance({"dl.matmul_split_k", "combine_step", 0,
                            static_cast<std::int64_t>(order[0]), spec_str,
                            row_range_bits(c, 0, m),
                            static_cast<std::uint64_t>(c.numel())});
  for (std::size_t t = 1; t < order.size(); ++t) {
    const Matrix& part = partials[order[t]];
    for_each_row_block(ctx, m, n, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t i = r0 * n; i < r1 * n; ++i) {
        c.flat(i) += part.flat(i);
      }
    }, "dl.matmul_split_k.combine");
    ctx.recorder->provenance({"dl.matmul_split_k", "combine_step",
                              static_cast<std::int64_t>(t),
                              static_cast<std::int64_t>(order[t]), spec_str,
                              row_range_bits(c, 0, m),
                              static_cast<std::uint64_t>(c.numel())});
  }
  return c;
}

Matrix add(const Matrix& a, const Matrix& b, const core::EvalContext& ctx) {
  if (!a.same_shape(b)) throw std::invalid_argument("add: shape mismatch");
  Matrix c = a;
  for_each_row_block(ctx, c.numel(), 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) c.flat(i) += b.flat(i);
  });
  return c;
}

void add_bias_rows(Matrix& a, const Matrix& bias,
                   const core::EvalContext& ctx) {
  require_rank2(a, "add_bias_rows(a)");
  const std::int64_t n = a.size(1);
  if (bias.numel() != n) {
    throw std::invalid_argument("add_bias_rows: bias length mismatch");
  }
  for_each_row_block(ctx, a.size(0), n, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      for (std::int64_t j = 0; j < n; ++j) a.flat(i * n + j) += bias.flat(j);
    }
  });
}

Matrix column_sums(const Matrix& a, const core::EvalContext& ctx) {
  require_rank2(a, "column_sums");
  const std::int64_t m = a.size(0), n = a.size(1);
  Matrix out(tensor::Shape{n}, 0.0f);
  // Column-blocked: the seed's i-j loop folds each column in ascending
  // row order; re-nesting to j-i keeps every column's stream intact. A
  // plain reduction, so the storage dtype quantizes the addends (not
  // operand pairs as in the matmuls).
  fp::visit_reduction<float>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        for_each_row_block(ctx, n, m, [&](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t j = j0; j < j1; ++j) {
            if constexpr (kNativeSerialF32<Acc, decltype(quantize)>) {
              for (std::int64_t i = 0; i < m; ++i) {
                out.flat(j) += a.flat(i * n + j);
              }
            } else {
              Acc acc;
              for (std::int64_t i = 0; i < m; ++i) {
                acc.add(static_cast<A>(quantize(a.flat(i * n + j))));
              }
              out.flat(j) = static_cast<float>(acc.result());
            }
          }
        });
      });
  return out;
}

Matrix gather_rows(const Matrix& x, const std::vector<std::int64_t>& indices,
                   const core::EvalContext& ctx) {
  require_rank2(x, "gather_rows");
  const std::int64_t cols = x.size(1);
  Matrix out(tensor::Shape{static_cast<std::int64_t>(indices.size()), cols},
             0.0f);
  for_each_row_block(
      ctx, static_cast<std::int64_t>(indices.size()), cols,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
          const std::int64_t r = indices[static_cast<std::size_t>(i)];
          if (r < 0 || r >= x.size(0)) {
            throw std::out_of_range("gather_rows: row index out of range");
          }
          for (std::int64_t j = 0; j < cols; ++j) {
            out.flat(i * cols + j) = x.flat(r * cols + j);
          }
        }
      });
  return out;
}

}  // namespace fpna::dl
