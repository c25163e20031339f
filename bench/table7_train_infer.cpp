// Reproduces Table 7: Vermv and Vc of the GraphSAGE inference outputs for
// the four training x inference determinism combinations (D/D, D/ND,
// ND/D, ND/ND), each measured over a population of runs against the
// fully-deterministic pipeline's output. Also reports the modelled
// training runtimes (paper: 0.48 s deterministic vs 0.18 s
// non-deterministic for the 10-epoch Cora run) and the measured CPU
// wall-clock of this implementation.
//
// Flags: --runs --epochs --seed --full --csv

#include <iostream>

#include "bench_common.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/stats/descriptive.hpp"
#include "fpna/util/table.hpp"
#include "fpna/util/timer.hpp"

using namespace fpna;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const auto runs =
      static_cast<std::size_t>(cli.integer("runs", full ? 100 : 12));
  const int epochs = static_cast<int>(cli.integer("epochs", 10));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");

  const auto ds = dl::make_synthetic_citation_dataset(
      full ? dl::DatasetConfig::cora() : dl::DatasetConfig::small());

  util::banner(std::cout,
               "Table 7: Vermv and Vc for training x inference determinism "
               "combinations (" + std::to_string(runs) + " runs each, " +
                   std::to_string(ds.num_nodes()) + " nodes)");

  dl::TrainConfig base;
  base.epochs = epochs;
  base.hidden = 16;

  // Reference: fully deterministic pipeline.
  dl::TrainConfig ref_config = base;
  ref_config.deterministic = true;
  core::RunContext ref_run(seed, 0);
  const auto ref_train = dl::train(ds, ref_config, ref_run);
  const core::EvalContext det_ctx;
  const dl::Matrix reference = dl::infer(ref_train.model, ds, det_ctx);

  const auto measure = [&](bool det_train, bool det_infer) {
    std::vector<double> vermvs, vcs;
    for (std::size_t r = 0; r < runs; ++r) {
      dl::TrainConfig config = base;
      config.deterministic = det_train;
      core::RunContext train_run(seed + 100, r);
      const auto trained = dl::train(ds, config, train_run);
      core::RunContext infer_run(seed + 200, r);
      core::EvalContext ctx;
      if (!det_infer) ctx = core::EvalContext{.run = &infer_run};
      const dl::Matrix out = dl::infer(trained.model, ds, ctx);
      vermvs.push_back(core::vermv(reference.data(), out.data()));
      vcs.push_back(core::vc(reference.data(), out.data()));
    }
    return std::pair{stats::summarize(vermvs), stats::summarize(vcs)};
  };

  util::Table table({"Training", "Inference", "Vermv/1e-6", "Vc"});
  const auto cell = [](const stats::Summary& s, double scale, int precision) {
    return util::fixed(s.mean / scale, precision) + "(" +
           util::fixed(s.stddev / scale, precision) + ")";
  };
  for (const auto& [dt, di, lt, li] :
       std::vector<std::tuple<bool, bool, const char*, const char*>>{
           {true, true, "D", "D"},
           {true, false, "D", "ND"},
           {false, true, "ND", "D"},
           {false, false, "ND", "ND"}}) {
    const auto [vermv_summary, vc_summary] = measure(dt, di);
    table.add_row({lt, li, cell(vermv_summary, 1e-6, 4),
                   cell(vc_summary, 1.0, 3)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // Training runtimes: modelled GPU at paper (Cora) scale + measured CPU
  // wall-clock of this run's workload.
  const auto cora_ds =
      dl::make_synthetic_citation_dataset(dl::DatasetConfig::cora());
  const auto dims = dl::ModelDims::of(cora_ds, base.hidden);
  const auto h100 = sim::DeviceProfile::h100();
  std::cout << "\nmodelled GPU training time at Cora scale (" << epochs
            << " epochs): D "
            << util::fixed(dl::modeled_gpu_training_s(h100, dims, epochs, true),
                           2)
            << " s, ND "
            << util::fixed(
                   dl::modeled_gpu_training_s(h100, dims, epochs, false), 2)
            << " s\n";
  {
    core::RunContext run(seed + 300, 0);
    dl::TrainConfig config = base;
    config.deterministic = true;
    const util::Timer timer;
    dl::train(ds, config, run);
    std::cout << "measured CPU wall-clock for one training: "
              << util::fixed(timer.elapsed_seconds(), 2) << " s\n";
  }

  std::cout << "\nPaper reference (Table 7): D/D = 0(0); variability "
               "ordering ND/ND (5.08e-6) > ND/D (4.27e-6) > D/ND (2.63e-6) "
               "> D/D; training contributes more than inference, but "
               "inference is non-negligible. Training runtime 0.48 s (D) "
               "vs 0.18 s (ND).\n";
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
