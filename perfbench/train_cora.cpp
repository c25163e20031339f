// train-cora: deterministic GraphSAGE training on the Cora-shaped
// synthetic graph (paper SV: 2708 nodes, 1433 features), hidden 16,
// native serial spec, a 2-thread pool. Runs no comm and no serve code.

#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "fpna/dl/adam.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/obs/metrics.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace fpna;

constexpr int kEpochsPerCall = 5;
/// The traced breakdown makes kTracedCalls training calls of each kind
/// (an even number), of kTracedEpochs epochs each.
constexpr int kTracedEpochs = 1;
constexpr int kTracedCalls = 4;
constexpr std::size_t kPoolThreads = 2;

std::uint64_t fingerprint(const std::vector<double>& weights) {
  obs::Fingerprint fp;
  fp.feed(std::span<const double>(weights));
  return fp.value();
}

struct Setup {
  dl::Dataset dataset;
  dl::TrainConfig config;
};

std::unique_ptr<Setup> make_setup(std::uint64_t seed, util::ThreadPool* pool) {
  dl::DatasetConfig data = dl::DatasetConfig::cora();
  data.seed = seed;
  auto setup = std::make_unique<Setup>();
  setup->dataset = dl::make_synthetic_citation_dataset(data);
  setup->config.epochs = kEpochsPerCall;
  setup->config.hidden = 16;
  setup->config.init_seed = seed ^ 0x9e3779b97f4a7c15ull;
  setup->config.pool = pool;
  // Warm-up: one full-graph forward brings the pool workers up and the
  // feature table into cache before the first timed call.
  const dl::GraphSageModel model(setup->dataset.num_features(),
                                 setup->config.hidden,
                                 setup->dataset.num_classes,
                                 setup->config.init_seed);
  core::RunContext run(seed);
  (void)dl::infer(model, setup->dataset, setup->config.eval_context(run));
  return setup;
}

/// Wall time of each step of layered_training, summed over calls.
struct LayerTimes {
  obs::TimerStat forward, loss, backward, adam, accuracy;

  /// The epoch loop's steps, seconds.
  double epochs_s() const {
    return seconds(forward) + seconds(loss) + seconds(backward) +
           seconds(adam);
  }
  /// Every timed step, seconds.
  double total_s() const { return epochs_s() + seconds(accuracy); }

  static double seconds(const obs::TimerStat& stat) {
    return 1e-9 * static_cast<double>(stat.total_ns());
  }
};

/// dl::train (no loss scaling) driven through the layer calls, so each
/// step can be timed: the epoch loop, then the accuracy forward
/// dl::train runs after the last epoch. Returns the final weights.
std::vector<double> layered_training(const dl::Dataset& data,
                                     const dl::TrainConfig& config,
                                     LayerTimes& times) {
  core::RunContext run(0);
  const core::EvalContext ctx = config.eval_context(run);
  dl::GraphSageModel model(data.num_features(), config.hidden,
                           data.num_classes, config.init_seed);
  dl::Adam optimizer(dl::AdamConfig{.lr = config.lr});
  for (const auto& [param, grad] : model.parameters()) {
    optimizer.add_parameter(param, grad);
  }
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    dl::GraphSageModel::ForwardCache cache;
    std::optional<dl::Matrix> log_probs;
    {
      const obs::ScopedTimer timer(&times.forward);
      log_probs = model.forward(data.features, data.graph, ctx, &cache);
    }
    std::optional<dl::LossResult> loss;
    {
      const obs::ScopedTimer timer(&times.loss);
      loss = dl::nll_loss_masked(*log_probs, data.labels, data.train_mask,
                                 ctx);
    }
    {
      const obs::ScopedTimer timer(&times.backward);
      model.zero_grad();
      model.backward(cache, loss->d_logits, data.graph, ctx);
    }
    {
      const obs::ScopedTimer timer(&times.adam);
      optimizer.step();
    }
  }
  std::vector<double> weights = model.flattened_weights();
  {
    const obs::ScopedTimer timer(&times.accuracy);
    core::EvalContext det_ctx;
    det_ctx.accumulator = config.accumulator;
    det_ctx.pool = config.pool;
    const dl::Matrix probs =
        model.forward(data.features, data.graph, det_ctx, nullptr);
    (void)dl::accuracy(probs, data.labels, &data.train_mask);
  }
  return weights;
}

}  // namespace

void train_cora(const Options& options, Result& result) {
  util::ThreadPool pool(kPoolThreads);
  std::unique_ptr<Setup> setup;
  const double setup_s = median_time_s(kSetupReps, [&] {
    setup.reset();
    setup = make_setup(options.seed, &pool);
  });

  // Each timed call is one dl::train of kEpochsPerCall epochs; its final
  // weights must equal the first call's bit for bit.
  core::RunContext run(options.seed);
  std::vector<double> epoch_s;
  std::optional<std::uint64_t> first_bits;
  const double start = now_s();
  while (epoch_s.size() < 2 || now_s() - start < options.seconds) {
    const double t0 = now_s();
    const dl::TrainResult trained =
        dl::train(setup->dataset, setup->config, run);
    epoch_s.push_back((now_s() - t0) / kEpochsPerCall);
    const std::uint64_t bits = fingerprint(trained.final_weights);
    if (!first_bits) first_bits = bits;
    result.check(bits == *first_bits &&
                 std::isfinite(trained.epoch_losses.back()));
  }
  const double elapsed = now_s() - start;
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("latency_ms", 1e3 * median(epoch_s), "ms");
  result.add("throughput_per_s",
             static_cast<double>(epoch_s.size() * kEpochsPerCall) / elapsed,
             "1/s");
}

double train_cora_layers(const Options& options, Result& result) {
  util::ThreadPool pool(kPoolThreads);
  std::unique_ptr<Setup> setup = make_setup(options.seed, &pool);
  setup->config.epochs = kTracedEpochs;
  const dl::Dataset& data = setup->dataset;
  core::RunContext run(0);

  // dl::train (A) and the timed layer calls (B) in the order A B B A,
  // repeated, so that a drift of the host's speed weighs the same on both
  // sums. Every call must give the first call's weights.
  std::optional<std::uint64_t> ref_bits;
  const auto same = [&](const std::vector<double>& weights) {
    const std::uint64_t bits = fingerprint(weights);
    if (!ref_bits) ref_bits = bits;
    return bits == *ref_bits;
  };
  LayerTimes pooled;
  double train_s = 0.0, layered_s = 0.0;
  for (int i = 0; i < 2 * kTracedCalls; ++i) {
    const bool layered = i % 4 == 1 || i % 4 == 2;
    const double t0 = now_s();
    if (layered) {
      result.check(same(layered_training(data, setup->config, pooled)));
      layered_s += now_s() - t0;
    } else {
      const dl::TrainResult trained = dl::train(data, setup->config, run);
      train_s += now_s() - t0;
      result.check(same(trained.final_weights) &&
                   std::isfinite(trained.epoch_losses.back()));
    }
  }
  const double calls = kTracedCalls;
  const double epochs = calls * kTracedEpochs;
  for (const auto& [name, stat] :
       {std::pair{"dl.forward_s", &pooled.forward},
        std::pair{"dl.loss_s", &pooled.loss},
        std::pair{"dl.backward_s", &pooled.backward},
        std::pair{"dl.adam_s", &pooled.adam}}) {
    result.add(name, LayerTimes::seconds(*stat) / epochs, "s");
  }
  result.add("dl.accuracy_forward_s",
             LayerTimes::seconds(pooled.accuracy) / calls, "s");
  // The timed steps over the whole wall time of the calls that made them,
  // which also holds what no step times (model and optimizer set-up,
  // freeing each epoch's buffers). Against dl::train's wall time instead,
  // the ratio would swing by the host's call-to-call noise (see
  // README.md); that comparison is the trace overhead returned below.
  const double coverage = pooled.total_s() / layered_s;
  result.check(coverage >= 0.95);
  result.add("dl.epoch_coverage", coverage, "ratio");

  // The same epochs with no pool: the single-thread baseline, and the
  // check that the pool does not change the bits.
  dl::TrainConfig serial_config = setup->config;
  serial_config.pool = nullptr;
  LayerTimes serial;
  result.check(same(layered_training(data, serial_config, serial)));
  const double serial_epoch_s = serial.epochs_s() / kTracedEpochs;
  result.add("dl.epoch_serial_s", serial_epoch_s, "s");
  result.add("util.pool_speedup", serial_epoch_s / (pooled.epochs_s() / epochs),
             "x");

  // Kernels at the 1433-wide layer's shapes, on the training pool.
  const core::EvalContext ctx = setup->config.eval_context(run);
  const std::int64_t n = data.num_nodes(), f = data.num_features(),
                     h = setup->config.hidden;
  util::Xoshiro256pp rng(options.seed);
  const auto random = [&](std::int64_t rows, std::int64_t cols) {
    return tensor::random_uniform<float>(tensor::Shape{rows, cols}, -1, 1, rng);
  };
  const dl::Matrix w = random(f, h), dz = random(n, h), d_agg = random(n, f);
  result.add("tensor.aggregate_s", median_time_s(3, [&] {
               (void)dl::mean_aggregate(data.features, data.graph, ctx);
             }),
             "s");
  result.add("tensor.aggregate_backward_s", median_time_s(3, [&] {
               (void)dl::mean_aggregate_backward(d_agg, data.graph, ctx);
             }),
             "s");
  const double gflop = 2.0 * static_cast<double>(n * f * h) * 1e-9;
  result.add("dl.matmul_gflops", gflop / median_time_s(5, [&] {
               (void)dl::matmul(data.features, w, ctx);
             }),
             "GFLOP/s");
  result.add("dl.matmul_ta_gflops", gflop / median_time_s(5, [&] {
               (void)dl::matmul_transpose_a(data.features, dz, ctx);
             }),
             "GFLOP/s");
  result.add("dl.matmul_tb_gflops", gflop / median_time_s(5, [&] {
               (void)dl::matmul_transpose_b(dz, w, ctx);
             }),
             "GFLOP/s");

  // Dispatch cost of an empty parallel_for on the training pool.
  constexpr int kCalls = 200;
  const double batch_s = median_time_s(20, [&] {
    for (int i = 0; i < kCalls; ++i) {
      pool.parallel_for(pool.size(),
                        [](std::size_t, std::size_t, std::size_t) {});
    }
  });
  result.add("util.parallel_for_us", batch_s / kCalls * 1e6, "us");

  return 100.0 * (layered_s - train_s) / train_s;
}

}  // namespace perfbench
