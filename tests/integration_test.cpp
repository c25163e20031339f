// Cross-module integration tests: the full experimental pipelines that
// the bench harnesses run, exercised end-to-end at reduced scale so CI
// verifies every paper-facing claim stays true.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/fp/summation.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/reduce/gpu_sum.hpp"
#include "fpna/sim/lpu.hpp"
#include "fpna/stats/fit.hpp"
#include "fpna/stats/histogram.hpp"
#include "fpna/stats/normality.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/rng.hpp"

namespace fpna {
namespace {

std::vector<double> uniform_array(std::size_t n, std::uint64_t seed,
                                  double lo = 0.0, double hi = 10.0) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// Table 1 pipeline: permutation variability of plain serial sums grows
// with n and sits at the 1e-16..1e-15 Vs scale for N(0,1) data.
TEST(Integration, Table1PermutationScale) {
  util::Xoshiro256pp rng(1);
  util::Normal dist(0.0, 1.0);
  for (const std::size_t n : {1000u, 100000u}) {
    std::vector<double> v(n);
    for (auto& x : v) x = dist(rng);
    const double s_d = fp::sum_serial(v);
    util::Xoshiro256pp shuffle_rng(2);
    double max_abs_vs = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
      util::shuffle(v, shuffle_rng);
      max_abs_vs =
          std::max(max_abs_vs, std::fabs(core::vs(fp::sum_serial(v), s_d)));
    }
    EXPECT_GT(max_abs_vs, 0.0);
    EXPECT_LT(max_abs_vs, 1e-9);  // still a relative-rounding-scale effect
  }
}

// Fig 1 / Fig 2 pipeline: SPA variability is Gaussian-like, AO is not.
// Uses many blocks (nt = 16 over 64k elements) so the SPA rounding lattice
// has enough distinct levels for a smooth histogram - at tiny sizes the
// discreteness of achievable roundings dominates any KL comparison.
TEST(Integration, SpaIsMoreGaussianThanAo) {
  const auto data = uniform_array(65536, 3);
  sim::SimDevice device(sim::DeviceProfile::v100());

  const auto collect = [&](sim::SumMethod method) {
    const auto d = [&](core::RunContext& ctx) {
      return reduce::gpu_sum(device, data, sim::SumMethod::kSPTR, ctx, 16)
          .value;
    };
    const auto nd = [&](core::RunContext& ctx) {
      return reduce::gpu_sum(device, data, method, ctx, 16).value;
    };
    return core::measure_scalar_variability(d, nd, 400, 7).vs_samples;
  };

  const auto spa = collect(sim::SumMethod::kSPA);
  const auto ao = collect(sim::SumMethod::kAO);

  const auto spa_jb = stats::jarque_bera(spa);
  const auto ao_jb = stats::jarque_bera(ao);
  // AO's contention-mixture scheduling yields much stronger departure
  // from normality than SPA's wave shuffling.
  EXPECT_GT(ao_jb.statistic, 4.0 * spa_jb.statistic);

  const auto spa_summary = stats::summarize(spa);
  const auto ao_summary = stats::summarize(ao);
  const auto spa_hist = stats::Histogram::from_samples(spa, 20);
  const auto ao_hist = stats::Histogram::from_samples(ao, 20);
  const double spa_kl = stats::kl_divergence_vs_normal(
      spa_hist, spa_summary.mean, spa_summary.stddev);
  const double ao_kl = stats::kl_divergence_vs_normal(
      ao_hist, ao_summary.mean, ao_summary.stddev);
  EXPECT_GT(ao_kl, spa_kl);
}

// SIII.C pipeline: max |Vs| grows roughly like sqrt(n) for uniform data.
TEST(Integration, PowerLawExponentNearHalf) {
  sim::SimDevice device(sim::DeviceProfile::v100());
  std::vector<double> sizes, max_vs;
  for (const std::size_t n : {1000u, 4000u, 16000u, 64000u}) {
    const auto data = uniform_array(n, 100 + n);
    const auto d = [&](core::RunContext& ctx) {
      return reduce::gpu_sum(device, data, sim::SumMethod::kSPTR, ctx, 64)
          .value;
    };
    const auto nd = [&](core::RunContext& ctx) {
      return reduce::gpu_sum(device, data, sim::SumMethod::kSPA, ctx, 64)
          .value;
    };
    const auto report = core::measure_scalar_variability(d, nd, 120, 11);
    double mv = 0.0;
    for (const double v : report.vs_samples) mv = std::max(mv, std::fabs(v));
    sizes.push_back(static_cast<double>(n));
    max_vs.push_back(mv);
  }
  const auto fit = stats::power_law_fit(sizes, max_vs);
  // Random-walk rounding error: exponent in a loose band around 1/2.
  EXPECT_GT(fit.alpha, 0.1);
  EXPECT_LT(fit.alpha, 0.9);
  EXPECT_GT(fit.r_squared, 0.6);
}

// Table 5 pipeline: ND ops show nonzero Vermv at the FP32 rounding scale;
// deterministic reference never varies.
TEST(Integration, TensorOpVariabilityPipeline) {
  util::Xoshiro256pp rng(13);
  auto w = tensor::make_scatter_workload<float>(3000, 0.5, rng);

  const auto to_doubles = [](const tensor::TensorF& t) {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(t.numel()));
    for (const float v : t.data()) out.push_back(v);
    return out;
  };

  const core::ArrayKernel d_kernel = [&](core::RunContext&) {
    return to_doubles(
        tensor::scatter_reduce(w.self, 0, w.index, w.src, tensor::Reduce::kSum));
  };
  const core::ArrayKernel nd_kernel = [&](core::RunContext& run) {
    const core::EvalContext ctx{.run = &run};
    return to_doubles(tensor::scatter_reduce(w.self, 0, w.index, w.src,
                                             tensor::Reduce::kSum, true, ctx));
  };

  const auto report =
      core::measure_array_variability(d_kernel, nd_kernel, 50, 17);
  EXPECT_GT(report.vermv_summary.mean, 0.0);
  EXPECT_LT(report.vermv_summary.mean, 1e-4);  // FP32 rounding scale
  EXPECT_GT(report.vc_summary.mean, 0.0);
  EXPECT_LE(report.vc_summary.max, 1.0);
  EXPECT_TRUE(core::certify_deterministic(d_kernel, 5, 19).deterministic);
}

// Fig 3/4 trend: variability increases with reduction ratio for
// index_add (approximately linear in the paper).
TEST(Integration, IndexAddVcIncreasesWithRatio) {
  const auto vc_at = [](double ratio) {
    util::Xoshiro256pp rng(17);
    auto w = tensor::make_index_add_workload<float>(80, ratio, rng);
    const auto det = tensor::index_add(w.self, 0, w.index, w.source);
    double total = 0.0;
    constexpr int kRuns = 15;
    for (std::uint64_t r = 0; r < kRuns; ++r) {
      core::RunContext run(23, r);
      const core::EvalContext ctx{.run = &run};
      const auto out = tensor::index_add(w.self, 0, w.index, w.source, 1.0f, ctx);
      total += core::vc(det.data(), out.data());
    }
    return total / kRuns;
  };
  const double low = vc_at(0.2);
  const double high = vc_at(1.0);
  EXPECT_GT(high, low);
}

// Table 7 pipeline: the four training/inference determinism combinations
// are ordered exactly as in the paper.
TEST(Integration, Table7Ordering) {
  auto config = dl::DatasetConfig::small();
  config.num_nodes = 150;
  config.num_undirected_edges = 400;
  config.num_features = 48;
  const auto ds = dl::make_synthetic_citation_dataset(config);

  dl::TrainConfig tc;
  tc.epochs = 5;
  tc.hidden = 8;

  const auto run_condition = [&](bool det_train, bool det_infer,
                                 std::size_t runs) {
    // Reference: fully deterministic pipeline.
    dl::TrainConfig ref_config = tc;
    ref_config.deterministic = true;
    core::RunContext ref_run(900, 0);
    const auto ref_model = dl::train(ds, ref_config, ref_run);
    const core::EvalContext det_ctx;
    const dl::Matrix ref = dl::infer(ref_model.model, ds, det_ctx);

    double vermv_total = 0.0, vc_total = 0.0;
    for (std::uint64_t r = 0; r < runs; ++r) {
      dl::TrainConfig cfg = tc;
      cfg.deterministic = det_train;
      core::RunContext train_run(1000 + r, r);
      const auto trained = dl::train(ds, cfg, train_run);
      core::RunContext infer_run(2000 + r, r);
      core::EvalContext ctx;
      if (!det_infer) ctx = core::EvalContext{.run = &infer_run};
      const dl::Matrix out = dl::infer(trained.model, ds, ctx);
      vermv_total += core::vermv(ref.data(), out.data());
      vc_total += core::vc(ref.data(), out.data());
    }
    return std::pair<double, double>{vermv_total / runs, vc_total / runs};
  };

  const auto dd = run_condition(true, true, 3);
  const auto dnd = run_condition(true, false, 3);
  const auto ndd = run_condition(false, true, 3);
  const auto ndnd = run_condition(false, false, 3);

  EXPECT_EQ(dd.first, 0.0);   // D/D is bitwise reproducible
  EXPECT_EQ(dd.second, 0.0);
  EXPECT_GT(dnd.second, 0.0);  // ND inference alone already varies
  EXPECT_GT(ndd.second, 0.0);  // ND training alone too
  // Paper Table 7: ND training contributes more than ND inference, and
  // ND/ND is the worst.
  EXPECT_GT(ndd.first, dnd.first);
  EXPECT_GE(ndnd.first, ndd.first * 0.8);  // allow sampling noise
}

// Reproducible-summation guarantee survives the full pipeline: GPU sums,
// CPU sums and the superaccumulator agree to within rounding, and the
// superaccumulator is exactly permutation invariant.
TEST(Integration, CrossStackSumConsistency) {
  const auto data = uniform_array(50000, 19, -100.0, 100.0);
  const double exact = fp::Superaccumulator::sum(data);

  sim::SimDevice device(sim::DeviceProfile::gh200());
  core::RunContext ctx(21, 0);
  for (const auto method :
       {sim::SumMethod::kCU, sim::SumMethod::kSPTR, sim::SumMethod::kSPRG,
        sim::SumMethod::kTPRC, sim::SumMethod::kSPA, sim::SumMethod::kAO}) {
    const auto result = reduce::gpu_sum(device, data, method, ctx, 128);
    EXPECT_NEAR(result.value, exact, std::fabs(exact) * 1e-10 + 1e-8)
        << sim::to_string(method);
  }
  EXPECT_NEAR(reduce::cpu_sum_serial(data), exact, 1e-8);
  EXPECT_NEAR(reduce::cpu_sum_chunked_deterministic(data, 8), exact, 1e-8);
  EXPECT_EQ(reduce::cpu_sum_reproducible(data, 8), exact);
}

// LPU end-to-end: deterministic inference with fixed modelled latency.
TEST(Integration, LpuPipelineDeterminism) {
  auto config = dl::DatasetConfig::small();
  config.num_nodes = 100;
  config.num_undirected_edges = 250;
  config.num_features = 32;
  const auto ds = dl::make_synthetic_citation_dataset(config);

  dl::TrainConfig tc;
  tc.epochs = 3;
  tc.hidden = 8;
  tc.deterministic = true;
  core::RunContext run(25, 0);
  const auto trained = dl::train(ds, tc, run);

  // "Running on the LPU" = deterministic ops + static-schedule timing.
  const core::EvalContext det_ctx;
  const dl::Matrix a = dl::infer(trained.model, ds, det_ctx);
  const dl::Matrix b = dl::infer(trained.model, ds, det_ctx);
  EXPECT_TRUE(a.bitwise_equal(b));

  const sim::LpuDevice lpu;
  const auto dims = dl::ModelDims::of(ds, tc.hidden);
  const double t1 = dl::lpu_inference_ms(lpu, dims);
  const double t2 = dl::lpu_inference_ms(lpu, dims);
  EXPECT_EQ(t1, t2);  // cycle-exact, not a measurement
  EXPECT_GT(t1, 0.0);
}

}  // namespace
}  // namespace fpna
