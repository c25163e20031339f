#pragma once
// Shared plumbing of the perfbench workloads: run options, the result
// record printed as the benchmark's last line and sample statistics.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: the operation counts and the named metrics, in
/// insertion order. A run is correct when no operation failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name),
                         std::make_pair(value, std::move(unit)));
  }
  /// Counts one operation and whether it produced the expected output.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// End-to-end runs: each adds setup_s, peak_rss_mb, latency_ms and
// throughput_per_s, measured on its own work only (see README.md).
void train_cora(const Options& options, Result& result);
void serve_cora(const Options& options, Result& result);
void reduce_exact(const Options& options, Result& result);

// Per-layer breakdowns: each adds its modules' metrics to `result` and
// returns the tracing overhead measured on its workload's operation, %.
double train_cora_layers(const Options& options, Result& result);
double serve_cora_layers(const Options& options, Result& result);
double reduce_exact_layers(const Options& options, Result& result);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Median wall time of `reps` calls of `fn`, seconds.
template <typename Fn>
double median_time_s(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    times.push_back(now_s() - t0);
  }
  return median(std::move(times));
}

/// Set-up repetitions of an end-to-end run: setup_s is their median.
constexpr int kSetupReps = 5;

/// Peak resident set of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
