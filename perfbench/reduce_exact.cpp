// reduce-exact: the paper's HPC half. An exact (superaccumulator)
// reduce::cpu_sum over 2^24 uniform doubles, and a reproducible bucketed
// allreduce over a simulated 4-rank ring of one GraphSAGE-Cora gradient
// per rank (the six parameter tensors of the hidden-16 model) overlapped
// on a 2-thread pool. Its timed calls run no dl, tensor or serve code.

#include <cstring>
#include <numeric>

#include "common.hpp"
#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/obs/metrics.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace fpna;

constexpr std::size_t kSumElements = std::size_t{1} << 24;
constexpr std::size_t kSumChunks = 4;
constexpr std::size_t kRanks = 4;
constexpr std::size_t kBucketCap = 16384;
constexpr std::size_t kPoolThreads = 2;

constexpr double kSumBytes = 8.0 * kSumElements;

/// Element counts of GraphSageModel::parameters() for the Cora shape
/// (1433 features, 7 classes) and hidden 16: per layer the self weight,
/// its bias and the neighbour weight.
std::vector<std::size_t> gradient_sizes() {
  const dl::DatasetConfig cora = dl::DatasetConfig::cora();
  const auto f = static_cast<std::size_t>(cora.num_features);
  const auto c = static_cast<std::size_t>(cora.num_classes);
  constexpr std::size_t h = 16;
  return {f * h, h, f * h, h * c, c, h * c};
}

double allreduce_bytes() {
  std::size_t elements = 0;
  for (const std::size_t n : gradient_sizes()) elements += n;
  return 4.0 * kRanks * static_cast<double>(elements);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const comm::TensorList<float>& a,
               const comm::TensorList<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size() ||
        std::memcmp(a[t].data(), b[t].data(), a[t].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

struct Setup {
  std::vector<double> data;
  double sum_reference = 0.0;
  std::vector<comm::TensorList<float>> rank_tensors;
  comm::TensorList<float> allreduce_reference;
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  util::Xoshiro256pp rng(seed);
  s.data.resize(kSumElements);
  for (double& x : s.data) x = util::canonical(rng) - 0.5;
  // The exact sum, streamed in reverse element order.
  fp::Superaccumulator exact;
  for (std::size_t i = kSumElements; i-- > 0;) exact.add(s.data[i]);
  s.sum_reference = exact.round();

  const std::vector<std::size_t> sizes = gradient_sizes();
  s.rank_tensors.resize(kRanks);
  for (auto& tensors : s.rank_tensors) {
    for (const std::size_t n : sizes) {
      std::vector<float>& tensor = tensors.emplace_back(n);
      for (float& x : tensor) {
        x = static_cast<float>(util::canonical(rng) - 0.5);
      }
    }
  }
  // Element-wise exact sums with the ranks in reverse order.
  for (std::size_t t = 0; t < sizes.size(); ++t) {
    collective::RankDataF reversed;
    for (std::size_t r = kRanks; r-- > 0;) {
      reversed.push_back(s.rank_tensors[r][t]);
    }
    s.allreduce_reference.push_back(comm::exact_elementwise_allreduce<float>(
        reversed, fp::AlgorithmId::kSuperaccumulator));
  }
  return s;
}

struct Harness {
  const Setup& setup;
  core::EvalContext sum_ctx;
  core::EvalContext comm_ctx;
  comm::SimProcessGroup pg{kRanks, comm::WirePath::kRing};
  comm::BucketedConfig bucketed;

  Harness(const Setup& s, util::ThreadPool& pool) : setup(s) {
    sum_ctx.accumulator = fp::AlgorithmId::kSuperaccumulator;
    comm_ctx.accumulator = fp::AlgorithmId::kSuperaccumulator;
    comm_ctx.pool = &pool;
    bucketed.bucket_cap_elements = kBucketCap;
    bucketed.overlap = true;
  }

  /// One exact sum; returns its wall time.
  double sum(Result& result) {
    const double t0 = now_s();
    const double total = reduce::cpu_sum(setup.data, sum_ctx, kSumChunks);
    const double dt = now_s() - t0;
    result.check(same_bits(total, setup.sum_reference));
    return dt;
  }

  /// One allreduce under `algorithm`; returns its wall time. The
  /// reproducible result must equal the reference bit for bit.
  double allreduce(Result& result, collective::Algorithm algorithm,
                   const core::EvalContext& ctx) {
    const double t0 = now_s();
    const comm::TensorList<float> out = comm::bucketed_allreduce<float>(
        pg, setup.rank_tensors, algorithm, ctx, bucketed);
    const double dt = now_s() - t0;
    if (algorithm == collective::Algorithm::kReproducible) {
      result.check(same_bits(out, setup.allreduce_reference));
    }
    return dt;
  }
};

/// Median of `reps` results of `fn`, which returns a duration.
template <typename Fn>
double median_s(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(fn());
  return median(std::move(times));
}

double per_layer(Harness& h, Result& result) {
  const Setup& setup = h.setup;
  // Single-thread fp::reduce of the whole array per spec.
  using fp::AlgorithmId;
  for (const auto& [name, algorithm] :
       {std::pair{"fp.reduce_superacc_gbps", AlgorithmId::kSuperaccumulator},
        std::pair{"fp.reduce_binned_gbps", AlgorithmId::kBinned},
        std::pair{"fp.reduce_serial_gbps", AlgorithmId::kSerial}}) {
    const double s = median_time_s(3, [&] {
      const double total = fp::reduce<double>(
          fp::ReductionSpec{algorithm}, std::span<const double>(setup.data));
      if (algorithm == AlgorithmId::kSuperaccumulator) {
        result.check(same_bits(total, setup.sum_reference));
      }
    });
    result.add(name, kSumBytes / s * 1e-9, "GB/s");
  }

  // cpu_sum: exact vs native, same array and chunks. Trace overhead:
  // calls untraced (A) and under a timer (B) in the order A B B A,
  // repeated, so that a drift of the host's speed weighs the same on
  // both; the mean of each.
  std::vector<double> exact;
  obs::TimerStat traced;
  for (int i = 0; i < 16; ++i) {
    if (i % 4 == 1 || i % 4 == 2) {
      const obs::ScopedTimer timer(&traced);
      h.sum(result);
    } else {
      exact.push_back(h.sum(result));
    }
  }
  const double exact_s = median(exact);
  const double untraced_mean_s =
      std::accumulate(exact.begin(), exact.end(), 0.0) /
      static_cast<double>(exact.size());
  const double traced_mean_s = 1e-9 *
                               static_cast<double>(traced.total_ns()) /
                               static_cast<double>(traced.count());
  const double native_s = median_time_s(5, [&] {
    (void)reduce::cpu_sum(setup.data, core::EvalContext{}, kSumChunks);
  });
  result.add("reduce.sum_native_gbps", kSumBytes / native_s * 1e-9, "GB/s");
  result.add("reduce.repro_cost", exact_s / native_s, "x");

  // Allreduce: the same lists through the rounded ring, and the exact
  // traffic of one reproducible call.
  core::EvalContext ring_ctx;
  ring_ctx.pool = h.comm_ctx.pool;
  const double ring_s = median_s(31, [&] {
    return h.allreduce(result, collective::Algorithm::kRing, ring_ctx);
  });
  const comm::Traffic before = h.pg.total_traffic();
  const double repro_s =
      h.allreduce(result, collective::Algorithm::kReproducible, h.comm_ctx);
  const comm::Traffic after = h.pg.total_traffic();
  result.add("comm.allreduce_ring_gbps", allreduce_bytes() / ring_s * 1e-9,
             "GB/s");
  result.add("comm.repro_cost", repro_s / ring_s, "x");
  result.add("comm.bytes_per_call",
             static_cast<double>(after.bytes_sent - before.bytes_sent),
             "bytes");
  result.add("comm.messages_per_call",
             static_cast<double>(after.messages - before.messages), "count");
  result.add("comm.buckets_per_call",
             static_cast<double>(comm::BucketAssigner(kBucketCap)
                                     .assign(gradient_sizes())
                                     .size()),
             "count");
  return 100.0 * (traced_mean_s - untraced_mean_s) / untraced_mean_s;
}

}  // namespace

void reduce_exact(const Options& options, Result& result) {
  util::ThreadPool pool(kPoolThreads);
  Setup setup;
  const double setup_s = median_time_s(kSetupReps, [&] {
    setup = Setup{};
    setup = make_setup(options.seed);
  });
  Harness h(setup, pool);
  h.sum(result);  // warm-up
  h.allreduce(result, collective::Algorithm::kReproducible, h.comm_ctx);

  std::vector<double> sum_s, allreduce_s;
  const double start = now_s();
  while (sum_s.size() < 3 || now_s() - start < options.seconds) {
    sum_s.push_back(h.sum(result));
    allreduce_s.push_back(h.allreduce(
        result, collective::Algorithm::kReproducible, h.comm_ctx));
  }
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("latency_ms", 1e3 * median(allreduce_s), "ms");
  result.add("throughput_per_s", kSumElements / median(sum_s), "1/s");
}

double reduce_exact_layers(const Options& options, Result& result) {
  util::ThreadPool pool(kPoolThreads);
  const Setup setup = make_setup(options.seed);
  Harness h(setup, pool);
  h.sum(result);  // warm-up
  return per_layer(h, result);
}

}  // namespace perfbench
