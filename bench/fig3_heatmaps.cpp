// Reproduces Fig. 3: heatmaps of the count variability Vc per run as a
// function of reduction ratio R and input dimension, for the
// non-deterministic scatter_reduce (1-d input) and index_add (2-d square
// input). Printed as aligned grids (rows = input dimension, columns = R)
// ready for plotting.
//
// Flags: --runs --seed --full --csv

#include <iostream>

#include "bench_common.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/table.hpp"

using namespace fpna;

namespace {

const std::vector<double> kRatios{0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9, 1.0};

double scatter_vc(std::int64_t dim, double ratio, std::size_t runs,
                  std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  auto w = tensor::make_scatter_workload<float>(dim, ratio, rng);
  const auto det =
      tensor::scatter_reduce(w.self, 0, w.index, w.src, tensor::Reduce::kSum);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    core::RunContext run(seed + 1, r);
    const core::EvalContext ctx{.run = &run};
    const auto out = tensor::scatter_reduce(w.self, 0, w.index, w.src,
                                            tensor::Reduce::kSum, true, ctx);
    total += core::vc(det.data(), out.data());
  }
  return total / static_cast<double>(runs);
}

double index_add_vc(std::int64_t dim, double ratio, std::size_t runs,
                    std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  auto w = tensor::make_index_add_workload<float>(dim, ratio, rng);
  const auto det = tensor::index_add(w.self, 0, w.index, w.source);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    core::RunContext run(seed + 1, r);
    const core::EvalContext ctx{.run = &run};
    const auto out = tensor::index_add(w.self, 0, w.index, w.source, 1.0f, ctx);
    total += core::vc(det.data(), out.data());
  }
  return total / static_cast<double>(runs);
}

template <typename CellFn>
void print_heatmap(const std::string& title,
                   const std::vector<std::int64_t>& dims, CellFn&& cell,
                   bool csv) {
  util::banner(std::cout, title);
  std::vector<std::string> headers{"dim \\ R"};
  for (const double r : kRatios) headers.push_back(util::fixed(r, 1));
  util::Table table(headers);
  for (const std::int64_t dim : dims) {
    std::vector<std::string> row{std::to_string(dim)};
    for (const double r : kRatios) row.push_back(util::fixed(cell(dim, r), 4));
    table.add_row(std::move(row));
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const auto runs =
      static_cast<std::size_t>(cli.integer("runs", full ? 200 : 25));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");

  const std::vector<std::int64_t> scatter_dims =
      full ? std::vector<std::int64_t>{1000, 2000, 3000, 4000, 5000, 6000,
                                       7000, 8000, 9000, 10000}
           : std::vector<std::int64_t>{1000, 2000, 4000, 8000};
  const std::vector<std::int64_t> index_add_dims =
      full ? std::vector<std::int64_t>{10, 20, 40, 60, 80, 100, 200, 400}
           : std::vector<std::int64_t>{10, 20, 40, 80, 160};

  print_heatmap(
      "Fig 3 (left): Vc heatmap for scatter_reduce(sum), 1-d input",
      scatter_dims,
      [&](std::int64_t dim, double ratio) {
        return scatter_vc(dim, ratio, runs, seed + static_cast<std::uint64_t>(
                                                       dim * 1000 + ratio * 10));
      },
      csv);
  print_heatmap(
      "Fig 3 (right): Vc heatmap for index_add, 2-d square input",
      index_add_dims,
      [&](std::int64_t dim, double ratio) {
        return index_add_vc(dim, ratio, runs,
                            seed + static_cast<std::uint64_t>(
                                       dim * 1000 + ratio * 10));
      },
      csv);

  std::cout << "\nPaper reference (Fig 3): Vc increases with input dimension "
               "and with R; large inputs approach Vc ~ 1 (every run unique) "
               "- \"the worst case for reproducibility and error "
               "debugging\".\n";
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
