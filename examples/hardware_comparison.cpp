// Scenario: choosing hardware/kernels for a reproducibility-sensitive
// pipeline. Runs the same scatter_reduce workload across the simulated
// GPU family profiles (V100 / GH200 / H100 / Mi250X) and the
// deterministic LPU model, comparing variability and modelled cost - the
// cross-hardware story of the paper's SIII.C and SIV/SVI.

#include <iostream>

#include "fpna/core/metrics.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/sim/cost_model.hpp"
#include "fpna/sim/lpu.hpp"
#include "fpna/stats/descriptive.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/table.hpp"

int main() {
  using namespace fpna;

  constexpr std::int64_t kInputDim = 4000;
  constexpr double kRatio = 0.5;
  constexpr std::size_t kRuns = 40;

  util::Xoshiro256pp rng(42);
  auto w = tensor::make_scatter_workload<float>(kInputDim, kRatio, rng);
  const auto reference =
      tensor::scatter_reduce(w.self, 0, w.index, w.src, tensor::Reduce::kSum);

  std::cout << "scatter_reduce(sum) over " << kInputDim
            << " elements, R = " << kRatio << ", " << kRuns
            << " runs per device\n\n";

  util::Table table({"device", "mean Vc", "mean Vermv x1e-7",
                     "modelled ND kernel (us)", "deterministic option"});

  const std::vector<sim::DeviceProfile> profiles{
      sim::DeviceProfile::v100(), sim::DeviceProfile::gh200(),
      sim::DeviceProfile::h100(), sim::DeviceProfile::mi250x()};
  for (const auto& profile : profiles) {
    std::vector<double> vcs, vermvs;
    for (std::uint64_t r = 0; r < kRuns; ++r) {
      core::RunContext run(7, r);
      const core::EvalContext ctx{.run = &run, .profile = &profile};
      const auto out = tensor::scatter_reduce(w.self, 0, w.index, w.src,
                                              tensor::Reduce::kSum, true, ctx);
      vcs.push_back(core::vc(reference.data(), out.data()));
      vermvs.push_back(core::vermv(reference.data(), out.data()));
    }
    const auto vc_summary = stats::summarize(vcs);
    const auto vermv_summary = stats::summarize(vermvs);
    const auto nd_us = sim::estimated_indexed_op_time_us(
        profile, sim::IndexedOpKind::kScatterReduceSum,
        static_cast<std::size_t>(kInputDim), false);
    table.add_row({profile.name, util::fixed(vc_summary.mean, 4),
                   util::fixed(vermv_summary.mean / 1e-7, 2),
                   nd_us ? util::fixed(*nd_us, 1) : "N/A",
                   "no (runtime error if requested)"});
  }

  // The LPU: deterministic by construction, fixed cycle count.
  const sim::LpuDevice lpu;
  {
    // On the LPU the kernel is the deterministic implementation; verify
    // zero variability by construction.
    const auto out =
        tensor::scatter_reduce(w.self, 0, w.index, w.src, tensor::Reduce::kSum);
    const double vc_value = core::vc(reference.data(), out.data());
    table.add_row({lpu.name(), util::fixed(vc_value, 4), "0.00",
                   util::fixed(lpu.op_time_us(sim::LpuOp::kScatterReduceSum,
                                              static_cast<std::size_t>(
                                                  kInputDim)),
                               1),
                   "always (static schedule)"});
  }
  table.print(std::cout);

  std::cout << "\nReading: GPU families differ in the *distribution* of "
               "variability (scheduler policy), but all show nonzero Vc; "
               "the statically scheduled accelerator eliminates it at equal "
               "or better kernel cost (paper Tables 6/8).\n";
  return 0;
}
