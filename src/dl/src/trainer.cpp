#include "fpna/dl/trainer.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/adam.hpp"
#include "fpna/obs/metrics.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/sim/cost_model.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::dl {

TrainResult train(const Dataset& dataset, const TrainConfig& config,
                  core::RunContext& run) {
  if (config.epochs <= 0) throw std::invalid_argument("train: epochs <= 0");

  // The model must live at its final address before the optimizer takes
  // parameter pointers (moving it later would leave Adam updating
  // moved-from storage).
  TrainResult result{GraphSageModel(dataset.num_features(), config.hidden,
                                    dataset.num_classes, config.init_seed),
                     {},
                     {},
                     {},
                     0.0,
                     {},
                     0};

  const core::EvalContext ctx = config.eval_context(run);

  Adam optimizer(AdamConfig{.lr = config.lr});
  const auto parameters = result.model.parameters();
  for (const auto& [param, grad] : parameters) {
    optimizer.add_parameter(param, grad);
  }

  LossScaler scaler(config.loss_scale);
  obs::Gauge* const scale_gauge =
      ctx.recorder != nullptr && config.loss_scale.enabled()
          ? &ctx.recorder->metrics().gauge("dl.loss_scale.scale")
          : nullptr;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    GraphSageModel::ForwardCache cache;
    const Matrix log_probs =
        result.model.forward(dataset.features, dataset.graph, ctx, &cache);
    // The reported loss is never scaled; the scale multiplies only the
    // gradient (folded into the d_logits constant inside the loss
    // backward, the same fusion real mixed-precision trainers use).
    const float scale = scaler.scale();
    const LossResult loss = nll_loss_masked(
        log_probs, dataset.labels, dataset.train_mask, ctx, scale);
    result.epoch_losses.push_back(loss.loss);
    result.epoch_loss_scale.push_back(scale);
    if (scale_gauge != nullptr) scale_gauge->set(static_cast<double>(scale));

    result.model.zero_grad();
    result.model.backward(cache, loss.d_logits, dataset.graph, ctx);

    // Finiteness is checked on the *scaled* gradients (an overflowed
    // step must be caught before the unscale multiply can turn its infs
    // into NaNs); the scan is skipped entirely when scaling is off, so
    // the historic path stays untouched.
    bool grads_finite = true;
    if (config.loss_scale.enabled()) {
      for (const auto& pg : parameters) {
        if (!all_finite(*pg.second)) {
          grads_finite = false;
          break;
        }
      }
    }
    if (scaler.update(grads_finite)) {
      if (config.loss_scale.enabled()) {
        for (const auto& pg : parameters) {
          unscale_gradient(*pg.second, scale, config.accumulator);
        }
      }
      optimizer.step();
    } else if (ctx.recorder != nullptr) {
      ctx.recorder->metrics().counter("dl.loss_scale.skipped_steps")
          .increment();
    }

    if (config.snapshot_epochs) {
      result.epoch_weights.push_back(result.model.flattened_weights());
    }
  }
  result.skipped_steps = scaler.skipped_steps();

  result.final_weights = result.model.flattened_weights();

  // Accuracy evaluated with the deterministic forward so it reflects the
  // trained weights, not inference noise. The pool changes wall-clock
  // only, never bits.
  core::EvalContext det_ctx;
  det_ctx.accumulator = config.accumulator;
  det_ctx.pool = config.pool;
  const Matrix final_probs =
      result.model.forward(dataset.features, dataset.graph, det_ctx, nullptr);
  result.train_accuracy =
      accuracy(final_probs, dataset.labels, &dataset.train_mask);
  return result;
}

Matrix infer(const GraphSageModel& model, const Dataset& dataset,
             const core::EvalContext& ctx) {
  return model.forward(dataset.features, dataset.graph, ctx, nullptr);
}

double accuracy(const Matrix& log_probs,
                const std::vector<std::int64_t>& labels,
                const std::vector<char>* mask) {
  const auto predictions = argmax_rows(log_probs);
  if (predictions.size() != labels.size()) {
    throw std::invalid_argument("accuracy: size mismatch");
  }
  std::int64_t correct = 0;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) continue;
    ++total;
    if (predictions[i] == labels[i]) ++correct;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) / static_cast<double>(total);
}

double measured_dense_forward_us(const ModelDims& dims,
                                 const core::EvalContext& ctx, int reps) {
  // One measurement per (shape, pool width, reduction spec): the timing
  // tables query the same dims many times and must not re-run the
  // kernels on every call.
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t, std::size_t, fp::AlgorithmId,
                         fp::Dtype, fp::Dtype>;
  static std::mutex mutex;
  static std::map<Key, double> cache;
  const Key key{dims.nodes, dims.features, dims.hidden, dims.classes,
                ctx.pool != nullptr ? ctx.pool->size() : std::size_t{0},
                spec.algorithm, spec.storage, spec.accumulate};
  {
    const std::lock_guard lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  // Dense random operands (no exploitable sparsity) at the model's
  // shapes: one SAGEConv layer is two GEMMs per width.
  util::Xoshiro256pp rng(0x5eedfull);
  const auto x = tensor::random_uniform<float>(
      tensor::Shape{dims.nodes, dims.features}, -1.0, 1.0, rng);
  const auto w1 = tensor::random_uniform<float>(
      tensor::Shape{dims.features, dims.hidden}, -1.0, 1.0, rng);
  const auto a1 = tensor::random_uniform<float>(
      tensor::Shape{dims.nodes, dims.hidden}, -1.0, 1.0, rng);
  const auto w2 = tensor::random_uniform<float>(
      tensor::Shape{dims.hidden, dims.classes}, -1.0, 1.0, rng);

  // Timed through the run-wide monotonic clock (obs::ScopedTimer), so
  // these measurements and every traced span share one time base. With a
  // recorder attached the per-rep samples also land in its
  // "dl.trainer.dense_forward" timer stat.
  obs::TimerStat local_stat;
  obs::TimerStat* stat =
      ctx.recorder != nullptr
          ? &ctx.recorder->metrics().timer("dl.trainer.dense_forward")
          : &local_stat;
  double best_us = 0.0;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    double us = 0.0;
    {
      const obs::ScopedTimer timer(stat);
      for (int branch = 0; branch < 2; ++branch) {  // self + neighbour
        (void)matmul(x, w1, ctx);
        (void)matmul(a1, w2, ctx);
      }
      us = static_cast<double>(timer.elapsed_ns()) * 1e-3;
    }
    if (rep == 0 || us < best_us) best_us = us;
  }
  // On a first-call race the first emplace wins and every caller returns
  // the cached value, keeping equal-argument calls idempotent.
  const std::lock_guard lock(mutex);
  return cache.emplace(key, best_us).first->second;
}

ModelDims ModelDims::of(const Dataset& dataset, std::int64_t hidden) {
  ModelDims dims;
  dims.nodes = dataset.num_nodes();
  dims.edges = dataset.graph.num_edges();
  dims.features = dataset.num_features();
  dims.hidden = hidden;
  dims.classes = dataset.num_classes;
  return dims;
}

double modeled_gpu_inference_ms(const sim::DeviceProfile& profile,
                                const ModelDims& dims, bool deterministic) {
  // Framework dispatch overhead: the PyTorch(-Geometric) stack issues
  // ~15 small kernels per SAGEConv layer; each costs roughly the launch
  // overhead plus scheduling slack. Calibrated to put the ND Cora forward
  // pass at the paper's ~2.17 ms.
  constexpr double kKernelsPerLayer = 15.0;
  constexpr double kDispatchUsPerKernel = 72.0;
  const double framework_us = 2.0 * kKernelsPerLayer * kDispatchUsPerKernel;

  // Aggregation kernels: one index_add per layer over edges x feature
  // contributions. Layer 1 operates at input width, layer 2 at hidden.
  const auto layer1 =
      static_cast<std::size_t>(dims.edges * dims.features);
  const auto layer2 = static_cast<std::size_t>(dims.edges * dims.hidden);
  double agg_us = 0.0;
  for (const auto n : {layer1, layer2}) {
    const auto t = sim::estimated_indexed_op_time_us(
        profile, sim::IndexedOpKind::kIndexAdd, n, deterministic);
    agg_us += t.value();  // index_add has both paths on every profile
  }

  // Dense matmuls are tensor-core work on the device. Instead of a
  // hand-modeled flop count over a magic throughput, the host *measures*
  // the real kernels at the model's shapes (the same code path the
  // trainer runs) and projects onto the device through the calibrated
  // host->device dense speedup. The measurement deliberately uses the
  // serial context: the speedup constant is calibrated as scalar-host vs
  // H100, so a pooled measurement here would double-count parallelism.
  // (Benches wanting the pooled host number call measured_dense_forward_us
  // with their own ctx.) Best-of-3 bounds one-off scheduler stalls, since
  // the first sample is cached for the process lifetime.
  constexpr double kHostToDeviceDenseSpeedup = 1.2e4;  // scalar host vs H100
  const double matmul_us =
      measured_dense_forward_us(dims, core::EvalContext{}, /*reps=*/3) /
      kHostToDeviceDenseSpeedup;

  return (framework_us + agg_us + matmul_us) * 1e-3;
}

double modeled_gpu_training_s(const sim::DeviceProfile& profile,
                              const ModelDims& dims, int epochs,
                              bool deterministic) {
  // One epoch = forward + backward + optimizer. The backward pass runs
  // the aggregation index_add twice more (gradient scatter per layer) and
  // roughly doubles the dense work; the calibrated multipliers reproduce
  // the paper's 0.48 s (D) vs 0.18 s (ND) for 10 Cora epochs.
  const double forward_ms = modeled_gpu_inference_ms(profile, dims, deterministic);
  const double factor = deterministic ? 12.2 : 8.3;
  return forward_ms * factor * static_cast<double>(epochs) * 1e-3;
}

double lpu_inference_ms(const sim::LpuDevice& lpu, const ModelDims& dims) {
  // The statically scheduled graph executes as one fused program; its
  // cycle count scales with the streamed work (edges x features dominate).
  const auto work = static_cast<std::size_t>(
      dims.edges * (dims.features + dims.hidden) +
      dims.nodes * (dims.features * dims.hidden + dims.hidden * dims.classes) /
          512);
  return lpu.op_time_us(sim::LpuOp::kSageConvInference, work) * 1e-3;
}

}  // namespace fpna::dl
