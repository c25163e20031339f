// google-benchmark microbenchmarks for the tensor operations: CPU
// wall-clock of the deterministic vs non-deterministic implementations
// (the ND path pays for drawing and applying the commit order - the
// simulated analogue of atomic-contention cost).

#include <benchmark/benchmark.h>

#include "fpna/core/run_context.hpp"
#include "fpna/tensor/conv_transpose.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/scan_ops.hpp"
#include "fpna/tensor/workload.hpp"

namespace {

using namespace fpna;

void BM_ScatterReduceSum_D(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  auto w = tensor::make_scatter_workload<float>(state.range(0), 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::scatter_reduce(
        w.self, 0, w.index, w.src, tensor::Reduce::kSum));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ScatterReduceSum_ND(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  auto w = tensor::make_scatter_workload<float>(state.range(0), 0.5, rng);
  std::uint64_t r = 0;
  for (auto _ : state) {
    core::RunContext run(7, r++);
    const core::EvalContext ctx{.run = &run};
    benchmark::DoNotOptimize(tensor::scatter_reduce(
        w.self, 0, w.index, w.src, tensor::Reduce::kSum, true, ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_IndexAdd_D(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  auto w = tensor::make_index_add_workload<float>(state.range(0), 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::index_add(w.self, 0, w.index, w.source));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}

void BM_IndexAdd_ND(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  auto w = tensor::make_index_add_workload<float>(state.range(0), 0.5, rng);
  std::uint64_t r = 0;
  for (auto _ : state) {
    core::RunContext run(7, r++);
    const core::EvalContext ctx{.run = &run};
    benchmark::DoNotOptimize(
        tensor::index_add(w.self, 0, w.index, w.source, 1.0f, ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}

void BM_Cumsum_D(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  const auto t = tensor::random_uniform<float>(
      tensor::Shape{state.range(0)}, 0.0, 1.0, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::cumsum(t, 0));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Cumsum_ND(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  const auto t = tensor::random_uniform<float>(
      tensor::Shape{state.range(0)}, 0.0, 1.0, rng);
  std::uint64_t r = 0;
  for (auto _ : state) {
    core::RunContext run(7, r++);
    const core::EvalContext ctx{.run = &run};
    benchmark::DoNotOptimize(tensor::cumsum(t, 0, ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ConvTranspose2d_D(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  const auto input = tensor::random_uniform<float>(
      tensor::Shape{1, 8, state.range(0), state.range(0)}, -1, 1, rng);
  const auto weight =
      tensor::random_uniform<float>(tensor::Shape{8, 8, 3, 3}, -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::conv_transpose2d(input, weight));
  }
}

void BM_ConvTranspose2d_ND(benchmark::State& state) {
  util::Xoshiro256pp rng(42);
  const auto input = tensor::random_uniform<float>(
      tensor::Shape{1, 8, state.range(0), state.range(0)}, -1, 1, rng);
  const auto weight =
      tensor::random_uniform<float>(tensor::Shape{8, 8, 3, 3}, -1, 1, rng);
  std::uint64_t r = 0;
  for (auto _ : state) {
    core::RunContext run(7, r++);
    const core::EvalContext ctx{.run = &run};
    benchmark::DoNotOptimize(
        tensor::conv_transpose2d(input, weight, nullptr, {}, ctx));
  }
}

}  // namespace

BENCHMARK(BM_ScatterReduceSum_D)->Arg(2000)->Arg(20000);
BENCHMARK(BM_ScatterReduceSum_ND)->Arg(2000)->Arg(20000);
BENCHMARK(BM_IndexAdd_D)->Arg(100)->Arg(300);
BENCHMARK(BM_IndexAdd_ND)->Arg(100)->Arg(300);
BENCHMARK(BM_Cumsum_D)->Arg(65536);
BENCHMARK(BM_Cumsum_ND)->Arg(65536);
BENCHMARK(BM_ConvTranspose2d_D)->Arg(16);
BENCHMARK(BM_ConvTranspose2d_ND)->Arg(16);

BENCHMARK_MAIN();
