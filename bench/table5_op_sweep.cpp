// Reproduces Table 5: min and max Vermv over a hyperparameter sweep for
// every PyTorch operation the paper found to be non-deterministic:
//
//   ConvTranspose1d/2d/3d, cumsum, index_add, index_copy, index_put,
//   scatter, scatter_reduce
//
// For each hyperparameter configuration the ND kernel runs `runs` times
// against the deterministic reference and the mean Vermv is recorded; the
// table reports min/max across configurations (FP32 tensors, H100
// scheduling profile - the paper's H100 sweep used 10000 runs, default
// here is 20 per config; --runs scales).
//
// Flags: --runs --seed --csv

#include <functional>
#include <iostream>
#include <limits>

#include "bench_common.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/tensor/conv_transpose.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/scan_ops.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/table.hpp"

using namespace fpna;
using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI;

namespace {

/// One hyperparameter configuration of an op: runs the op (deterministic
/// when ctx is null / default, ND otherwise) and returns the output.
using ConfigKernel = std::function<TensorF(const core::EvalContext&)>;

struct OpSweep {
  std::string name;
  std::vector<ConfigKernel> configs;
};

double mean_vermv(const ConfigKernel& kernel, std::size_t runs,
                  std::uint64_t seed) {
  const TensorF reference = kernel(core::EvalContext{});
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    core::RunContext run(seed, r);
    const core::EvalContext ctx{.run = &run};
    const TensorF out = kernel(ctx);
    total += core::vermv(reference.data(), out.data());
  }
  return total / static_cast<double>(runs);
}

std::vector<OpSweep> build_sweeps(std::uint64_t seed) {
  std::vector<OpSweep> sweeps;
  util::Xoshiro256pp rng(seed);

  // --- ConvTransposeNd: sweep kernel size / stride / padding ------------
  {
    OpSweep s{"ConvTranspose1d", {}};
    for (const auto& [k, stride, pad] :
         std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
             {3, 1, 0}, {5, 2, 1}, {7, 3, 2}, {3, 1, 1}}) {
      const auto input =
          tensor::random_uniform<float>(Shape{1, 8, 64}, -1, 1, rng);
      const auto weight =
          tensor::random_uniform<float>(Shape{8, 8, k}, -1, 1, rng);
      tensor::ConvTransposeParams<1> p;
      p.stride = {stride};
      p.padding = {pad};
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::conv_transpose1d(input, weight, nullptr, p, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }
  {
    OpSweep s{"ConvTranspose2d", {}};
    for (const auto& [k, stride] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {3, 1}, {3, 2}, {5, 2}}) {
      const auto input =
          tensor::random_uniform<float>(Shape{1, 4, 12, 12}, -1, 1, rng);
      const auto weight =
          tensor::random_uniform<float>(Shape{4, 4, k, k}, -1, 1, rng);
      tensor::ConvTransposeParams<2> p;
      p.stride = {stride, stride};
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::conv_transpose2d(input, weight, nullptr, p, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }
  {
    OpSweep s{"ConvTranspose3d", {}};
    for (const std::int64_t k : {2, 3}) {
      const auto input =
          tensor::random_uniform<float>(Shape{1, 3, 6, 6, 6}, -1, 1, rng);
      const auto weight =
          tensor::random_uniform<float>(Shape{3, 3, k, k, k}, -1, 1, rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::conv_transpose3d(input, weight, nullptr, {}, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }

  // --- cumsum: sweep length ---------------------------------------------
  {
    OpSweep s{"cumsum", {}};
    for (const std::int64_t n : {256, 2048, 16384}) {
      const auto input = tensor::random_uniform<float>(Shape{n}, 0, 1, rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::cumsum(input, 0, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }

  // --- index_add: sweep size and reduction ratio -------------------------
  {
    OpSweep s{"index add", {}};
    for (const auto& [dim, ratio] :
         std::vector<std::pair<std::int64_t, double>>{
             {40, 0.2}, {80, 0.5}, {120, 1.0}}) {
      auto w = tensor::make_index_add_workload<float>(dim, ratio, rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::index_add(w.self, 0, w.index, w.source, 1.0f, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }

  // --- index_copy / index_put / scatter: duplicate-index write races -----
  {
    OpSweep s{"index copy", {}};
    for (const std::int64_t n : {5000, 20000}) {
      const auto self = tensor::random_uniform<float>(Shape{n}, 0, 1, rng);
      const auto source =
          tensor::random_uniform<float>(Shape{2 * n}, 0, 1, rng);
      const auto index = tensor::random_index(2 * n, n, rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::index_copy(self, 0, index, source, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }
  {
    OpSweep s{"index put", {}};
    for (const bool accumulate : {true, false}) {
      const auto self =
          tensor::random_uniform<float>(Shape{8000}, 0, 1, rng);
      const auto values =
          tensor::random_uniform<float>(Shape{24000}, 0, 1, rng);
      const auto index = tensor::random_index(24000, 8000, rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::index_put(self, index, values, accumulate, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }
  {
    OpSweep s{"scatter", {}};
    for (const std::int64_t n : {5000, 20000}) {
      const auto self = tensor::random_uniform<float>(Shape{n}, 0, 1, rng);
      const auto src = tensor::random_uniform<float>(Shape{2 * n}, 0, 1, rng);
      TensorI index(Shape{2 * n});
      const util::UniformInt dist(0, n - 1);
      for (auto& x : index.vec()) x = dist(rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::scatter(self, 0, index, src, ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }

  // --- scatter_reduce: sweep size, ratio and reduction mode --------------
  {
    OpSweep s{"scatter reduce", {}};
    for (const auto& [n, ratio, mode] :
         std::vector<std::tuple<std::int64_t, double, tensor::Reduce>>{
             {1000, 0.3, tensor::Reduce::kSum},
             {4000, 0.5, tensor::Reduce::kSum},
             {4000, 0.5, tensor::Reduce::kMean},
             {8000, 1.0, tensor::Reduce::kSum}}) {
      auto w = tensor::make_scatter_workload<float>(n, ratio, rng);
      s.configs.push_back([=](const core::EvalContext& ctx) {
        return tensor::scatter_reduce(w.self, 0, w.index, w.src, mode, true,
                                      ctx);
      });
    }
    sweeps.push_back(std::move(s));
  }
  return sweeps;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto runs = static_cast<std::size_t>(cli.integer("runs", 20));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");

  util::banner(std::cout,
               "Table 5: min/max Vermv for non-deterministic operations over "
               "hyperparameter sweeps (" + std::to_string(runs) +
                   " ND runs per configuration)");

  util::Table table(
      {"Operation", "min(Vermv)/1e-7", "max(Vermv)/1e-6", "configs"});
  for (const auto& sweep : build_sweeps(seed)) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (std::size_t c = 0; c < sweep.configs.size(); ++c) {
      const double v = mean_vermv(sweep.configs[c], runs, seed + 100 * c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    table.add_row({sweep.name, util::fixed(lo / 1e-7, 4),
                   util::fixed(hi / 1e-6, 4),
                   std::to_string(sweep.configs.size())});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\nPaper reference (Table 5, H100): max(Vermv) in the "
                 "0.5e-6..5e-6 band across ops; several ops hit "
                 "min(Vermv) = 0 for small configurations (too few "
                 "collisions to reorder). FP32 rounding puts one-ulp "
                 "errors at ~1.2e-7, hence the scale.\n";
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
