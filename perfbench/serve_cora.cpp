// serve-cora: serve::InferenceServer over a session frozen from the
// Cora-shaped model, native serial spec, max_batch 32, max_wait 100 us,
// a 2-thread pool. The submitter (this thread) and the batcher make four
// threads. Each round is a saturation phase (admission queue kept full)
// then an open-loop Poisson phase at a fixed 5k requests/s. Runs no
// training, no comm and no exact accumulators.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "fpna/obs/clock.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/serve/open_loop.hpp"
#include "fpna/serve/server.hpp"
#include "fpna/serve/session.hpp"
#include "fpna/util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace fpna;

constexpr std::size_t kPoolThreads = 2;
constexpr std::size_t kMaxBatch = 32;
constexpr double kPoissonRate = 5000.0;
constexpr std::size_t kScheduleLength = std::size_t{1} << 16;
constexpr double kSaturationS = 0.25;
constexpr double kPoissonS = 0.75;

struct Setup {
  dl::Dataset dataset;
  std::unique_ptr<serve::InferenceSession> session;
  /// One request per deployed node; every submission is a copy of one.
  std::vector<serve::Request> requests;
  /// row_forward of every deployed node: the bits each response must have.
  std::vector<std::vector<float>> reference;
  /// Seeded node order and Poisson gaps, cycled through.
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> gaps_ns;
  std::unique_ptr<serve::InferenceServer> server;
};

/// What one phase observed, one entry per completed request (µs).
struct Phase {
  std::vector<double> latency_us;  // due -> completed
  std::vector<double> admit_us;    // due -> submit() returned
  std::vector<double> server_us;   // admitted -> completed
  std::vector<double> late_us;     // due -> submit() called
  std::vector<std::uint64_t> completed_ns;
};

/// The open-loop load generator for one server. Runs on the calling
/// thread, which also collects responses in submission order.
class LoadGenerator {
 public:
  LoadGenerator(const Setup& setup, serve::InferenceServer& server,
                Result& result)
      : setup_(setup), server_(server), result_(result) {
    // Sleeps end within a microsecond or two of the due time instead of
    // the default 50 µs timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL);
  }

  /// Runs one phase for `seconds`: open loop at kPoissonRate when
  /// `poisson`, else back-to-back submissions that keep the queue full.
  Phase run(double seconds, bool poisson) {
    Phase phase;
    const std::uint64_t start = obs::now_ns() + 100'000;
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t due = start;
    for (;;) {
      if (poisson) {
        due += setup_.gaps_ns[cursor_ % setup_.gaps_ns.size()];
        if (due >= end) break;
        const std::uint64_t now = obs::now_ns();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
      } else {
        due = obs::now_ns();
        if (due >= end) break;
      }
      const std::uint32_t node = setup_.order[cursor_ % setup_.order.size()];
      ++cursor_;
      const std::uint64_t called = obs::now_ns();
      std::future<serve::InferenceResult> future =
          server_.submit(setup_.requests[node]);
      inflight_.push_back(
          {std::move(future), node, due, called, obs::now_ns()});
      while (!inflight_.empty() &&
             inflight_.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        collect(phase);
      }
    }
    while (!inflight_.empty()) collect(phase);
    return phase;
  }

 private:
  struct Pending {
    std::future<serve::InferenceResult> future;
    std::uint32_t node;
    std::uint64_t due_ns;
    std::uint64_t called_ns;
    std::uint64_t returned_ns;
  };

  void collect(Phase& phase) {
    Pending p = std::move(inflight_.front());
    inflight_.pop_front();
    serve::InferenceResult r;
    try {
      r = p.future.get();
    } catch (const std::exception&) {
      result_.check(false);
      return;
    }
    const std::vector<float>& want = setup_.reference[p.node];
    result_.check(r.log_probs.size() == want.size() &&
                  std::memcmp(r.log_probs.data(), want.data(),
                              want.size() * sizeof(float)) == 0);
    const auto us = [](std::uint64_t from, std::uint64_t to) {
      return 1e-3 * static_cast<double>(to - from);
    };
    phase.latency_us.push_back(us(p.due_ns, r.completed_ns));
    phase.admit_us.push_back(us(p.due_ns, p.returned_ns));
    phase.server_us.push_back(us(r.admitted_ns, r.completed_ns));
    phase.late_us.push_back(us(p.due_ns, p.called_ns));
    phase.completed_ns.push_back(r.completed_ns);
  }

  const Setup& setup_;
  serve::InferenceServer& server_;
  Result& result_;
  std::uint64_t cursor_ = 0;
  std::deque<Pending> inflight_;
};

/// Completions per second over the middle 80% of a saturation phase
/// (drops the ramp-up and the drain).
double saturation_rps(std::vector<std::uint64_t> completed) {
  std::sort(completed.begin(), completed.end());
  const std::size_t lo = completed.size() / 10;
  const std::size_t hi = completed.size() - 1 - lo;
  if (hi <= lo || completed[hi] == completed[lo]) {
    throw std::runtime_error("serve-cora: saturation phase too short");
  }
  return static_cast<double>(hi - lo) /
         (1e-9 * static_cast<double>(completed[hi] - completed[lo]));
}

/// Mean rows per batch: the server stamps completed_ns once per batch.
double batch_rows_mean(std::vector<std::uint64_t> completed) {
  std::sort(completed.begin(), completed.end());
  const auto batches =
      std::unique(completed.begin(), completed.end()) - completed.begin();
  return static_cast<double>(completed.size()) / static_cast<double>(batches);
}

serve::ServerConfig server_config(util::ThreadPool& pool,
                                  obs::Recorder* recorder) {
  serve::ServerConfig config;
  config.max_batch = kMaxBatch;
  config.max_wait = std::chrono::microseconds(100);
  config.pool = &pool;
  config.recorder = recorder;
  return config;
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed, util::ThreadPool& pool,
                                  double* session_build_s = nullptr) {
  auto setup = std::make_unique<Setup>();
  dl::DatasetConfig data = dl::DatasetConfig::cora();
  data.seed = seed;
  setup->dataset = dl::make_synthetic_citation_dataset(data);
  const dl::Dataset& d = setup->dataset;
  // Serving speed does not depend on the weights' values, so the model
  // is frozen at its seeded initialisation rather than trained.
  const dl::GraphSageModel model(d.num_features(), 16, d.num_classes,
                                 seed ^ 0x9e3779b97f4a7c15ull);
  core::EvalContext ctx;
  ctx.pool = &pool;
  const double t0 = now_s();
  setup->session = std::make_unique<serve::InferenceSession>(model, d, ctx);
  if (session_build_s != nullptr) *session_build_s = now_s() - t0;

  const auto n = static_cast<std::size_t>(d.num_nodes());
  for (std::size_t v = 0; v < n; ++v) {
    setup->requests.push_back(serve::InferenceSession::deployed_request(
        d, static_cast<std::int64_t>(v), v));
  }
  // Reference bits: serial row_forward, nodes in reverse order.
  setup->reference.resize(n);
  for (std::size_t v = n; v-- > 0;) {
    setup->reference[v] =
        setup->session->row_forward(setup->requests[v], core::EvalContext{});
  }
  util::Xoshiro256pp rng(seed);
  setup->order.resize(kScheduleLength);
  for (auto& node : setup->order) {
    node = static_cast<std::uint32_t>(rng() % n);
  }
  setup->gaps_ns = serve::exponential_interarrivals_ns(
      kPoissonRate, kScheduleLength, rng());

  setup->server = std::make_unique<serve::InferenceServer>(
      *setup->session, server_config(pool, nullptr));
  return setup;
}

}  // namespace

void serve_cora(const Options& options, Result& result) {
  util::ThreadPool pool(kPoolThreads);
  std::unique_ptr<Setup> setup;
  const double setup_s = median_time_s(kSetupReps, [&] {
    setup.reset();
    setup = make_setup(options.seed, pool);
    // Warm-up burst, part of set-up.
    LoadGenerator(*setup, *setup->server, result)
        .run(0.1, /*poisson=*/false);
  });

  // Per-round figures, reported as medians over rounds so that a short
  // stall on a shared host moves one round, not the run.
  LoadGenerator load(*setup, *setup->server, result);
  std::vector<double> rps, p50_us;
  const double start = now_s();
  while (rps.empty() || now_s() - start < options.seconds) {
    rps.push_back(
        saturation_rps(load.run(kSaturationS, false).completed_ns));
    const Phase open = load.run(kPoissonS, true);
    p50_us.push_back(median(open.latency_us));
  }
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("latency_ms", 1e-3 * median(p50_us), "ms");
  result.add("throughput_per_s", median(rps), "1/s");
}

double serve_cora_layers(const Options& options, Result& result) {
  util::ThreadPool pool(kPoolThreads);
  double session_build_s = 0.0;
  const std::unique_ptr<Setup> setup =
      make_setup(options.seed, pool, &session_build_s);
  result.add("serve.session_build_s", session_build_s, "s");

  // Kernels: one row alone, and batches of kMaxBatch rows on the pool.
  const std::vector<serve::Request>& requests = setup->requests;
  const double pass_s = median_time_s(3, [&] {
    for (const serve::Request& r : requests) {
      (void)setup->session->row_forward(r, core::EvalContext{});
    }
  });
  result.add("serve.row_forward_us",
             pass_s / static_cast<double>(requests.size()) * 1e6, "us");
  core::EvalContext pooled;
  pooled.pool = &pool;
  std::vector<serve::Request> batch(kMaxBatch);
  std::vector<double> batch_s;
  for (std::size_t b = 0; b < 200; ++b) {
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      batch[i] = requests[setup->order[b * kMaxBatch + i]];
    }
    const double t0 = now_s();
    (void)setup->session->batch_forward(batch, pooled);
    batch_s.push_back(now_s() - t0);
  }
  result.add("serve.batch_forward_us_per_row",
             median(batch_s) / kMaxBatch * 1e6, "us");

  // Rounds of: saturation, Poisson (the layer figures below), then
  // Poisson on a second server with an obs::Recorder attached - the
  // repository's own serve tracing - for the trace overhead.
  LoadGenerator load(*setup, *setup->server, result);
  load.run(0.1, false);  // warm-up
  obs::Recorder recorder;
  serve::InferenceServer traced_server(*setup->session,
                                       server_config(pool, &recorder));
  LoadGenerator traced_load(*setup, traced_server, result);
  traced_load.run(0.1, false);  // warm-up
  std::vector<double> untraced_p50, traced_p50;
  Phase open;
  for (int round = 0; round < 3; ++round) {
    load.run(kSaturationS, false);
    const Phase phase = load.run(kPoissonS, true);
    untraced_p50.push_back(median(phase.latency_us));
    for (auto [to, from] : {std::pair{&open.latency_us, &phase.latency_us},
                            std::pair{&open.admit_us, &phase.admit_us},
                            std::pair{&open.server_us, &phase.server_us},
                            std::pair{&open.late_us, &phase.late_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    open.completed_ns.insert(open.completed_ns.end(),
                             phase.completed_ns.begin(),
                             phase.completed_ns.end());
    traced_p50.push_back(
        median(traced_load.run(kPoissonS, true).latency_us));
  }
  result.add("serve.admit_wait_p50_us", quantile(open.admit_us, 0.5), "us");
  result.add("serve.admit_wait_p99_us", quantile(open.admit_us, 0.99), "us");
  result.add("serve.server_p50_us", quantile(open.server_us, 0.5), "us");
  result.add("serve.server_p99_us", quantile(open.server_us, 0.99), "us");
  result.add("serve.p99_us", quantile(open.latency_us, 0.99), "us");
  result.add("loadgen.late_p99_us", quantile(open.late_us, 0.99), "us");
  result.add("loadgen.late_max_us", quantile(open.late_us, 1.0), "us");
  const double rows = batch_rows_mean(open.completed_ns);
  result.add("serve.batch_rows_mean", rows, "rows");
  result.add("serve.batch_fill", rows / kMaxBatch, "ratio");
  const double untraced = median(untraced_p50);
  return 100.0 * (median(traced_p50) - untraced) / untraced;
}

}  // namespace perfbench
