#pragma once
// Internal helpers shared by the dl kernels (linalg.cpp, aggregate.cpp,
// layers.cpp): the native-spec test and the row-blocked pool dispatch
// behind the "bitwise identical to serial by construction" contract. Not
// installed - implementation detail only.

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "fpna/core/chunking.hpp"
#include "fpna/core/eval_context.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::dl::detail {

/// The dense kernels' dtype discipline (tensor-core semantics): the
/// spec's *storage* dtype quantizes the operands - a bf16 x bf16 product
/// is exact in binary32, so a float multiply models the MAC units
/// exactly - and the *accumulate* dtype is where each output element's
/// contribution stream runs. The native spec (identity quantize, float
/// accumulate, serial algorithm) keeps the seed's special-cased in-place
/// float loops; this names it.
template <typename Acc, typename Quant>
inline constexpr bool kNativeSerialF32 =
    std::is_same_v<Acc, fp::SerialAccumulator<float>> && Quant::is_identity;

/// Chunk count for a row-blocked parallel loop: boundaries derive from
/// the problem size alone (never the pool width), targeting ~64k scalar
/// operations per task so tiny kernels don't drown in submit overhead.
/// The rule lives in core/chunking.hpp alongside the split rules it
/// pairs with.
inline std::size_t size_derived_chunks(std::int64_t rows,
                                       std::int64_t work_per_row) {
  return core::size_derived_parts(
      static_cast<std::size_t>(std::max<std::int64_t>(0, rows)),
      static_cast<std::size_t>(std::max<std::int64_t>(0, work_per_row)));
}

/// Runs body(row_begin, row_end) over [0, rows): serially without a pool
/// (or with a single-thread one), otherwise row-blocked on the pool. Every
/// output row is produced by exactly one invocation running the same inner
/// loops as the serial path, so pooled execution is bitwise identical to
/// serial by construction - chunk boundaries can only move *which task*
/// computes a row, never the accumulation stream behind its elements.
/// `trace_name` labels the per-block trace spans when ctx carries a
/// recorder (one complete event per executed block, on the thread that
/// ran it - the raw material for the overlap timelines). Null recorder:
/// the span constructor is a pointer check and nothing else.
template <typename Body>
void for_each_row_block(const core::EvalContext& ctx, std::int64_t rows,
                        std::int64_t work_per_row, const Body& body,
                        const char* trace_name = "dl.row_block") {
  util::ThreadPool* pool = ctx.pool;
  if (pool == nullptr || pool->size() <= 1 || rows <= 1) {
    obs::Span span(ctx.recorder, trace_name);
    span.arg("row_begin", std::int64_t{0});
    span.arg("row_end", rows);
    body(std::int64_t{0}, rows);
    return;
  }
  pool->parallel_for(
      static_cast<std::size_t>(rows),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        obs::Span span(ctx.recorder, trace_name);
        span.arg("row_begin", static_cast<std::int64_t>(begin));
        span.arg("row_end", static_cast<std::int64_t>(end));
        body(static_cast<std::int64_t>(begin),
             static_cast<std::int64_t>(end));
      },
      size_derived_chunks(rows, work_per_row));
}

}  // namespace fpna::dl::detail
