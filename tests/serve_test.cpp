// The serving determinism contract, pinned:
//
//  * a deployed node's served row reproduces the offline full-graph
//    forward's row bitwise, per ReductionSpec, alone and in one pooled
//    batch of every node; a never-seen request reproduces the offline
//    forward's row of a graph with the request appended as a new node;
//  * per-request output bits are invariant to batch cap, batch
//    composition, thread count and admission order (the same request set
//    replayed under caps {1,2,8,64} x threads {1,2,8} x 4 specs,
//    including a lane-blocked bf16 spec, yields identical bits);
//  * a seeded overload burst against a tiny queue neither drops nor
//    corrupts a single request (backpressure blocks, never shed);
//  * a worker exception fails exactly the owning requests' futures and
//    deadlocks nothing (the batcher's join-and-rethrow audit), and a
//    failing row leaves its batch-mates' bits untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fpna/dl/dataset.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/serve/open_loop.hpp"
#include "fpna/serve/queue.hpp"
#include "fpna/serve/server.hpp"
#include "fpna/serve/session.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::serve {
namespace {

// The four specs of the invariance grid: the native default, a
// block-reassociating algorithm (Pairwise's accumulator state depends on
// the element *count*, the easiest thing for a batching bug to corrupt),
// a compensated bf16-storage spec and its lane-blocked SIMD form.
const char* kSpecs[] = {"serial", "pairwise", "klein@bf16:f32",
                        "kahan@simd8:bf16:f32"};

dl::DatasetConfig tiny_config() {
  dl::DatasetConfig config;
  config.num_nodes = 80;
  config.num_undirected_edges = 160;
  config.num_features = 48;
  config.num_classes = 5;
  config.words_per_node = 5;
  config.seed = 7;
  return config;
}

struct ServeWorld {
  dl::Dataset dataset = dl::make_synthetic_citation_dataset(tiny_config());
  dl::GraphSageModel model{48, 12, 5, /*init_seed=*/21};

  InferenceSession session(const fp::ReductionSpec& spec) const {
    core::EvalContext ctx;
    ctx.accumulator = spec;
    return InferenceSession(model, dataset, ctx);
  }
};

/// A mixed request set: deployed nodes plus synthetic never-seen rows
/// (custom features, hand-picked neighbour lists) - batch composition
/// should not matter even across heterogeneous neighbours.
std::vector<Request> make_requests(const dl::Dataset& dataset,
                                   std::size_t count) {
  std::vector<Request> requests;
  util::Xoshiro256pp rng(99);
  const util::UniformReal unit(0.0, 1.0);
  const auto nodes = dataset.num_nodes();
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      requests.push_back(InferenceSession::deployed_request(
          dataset, static_cast<std::int64_t>(i) % nodes, i));
    } else {
      Request request;
      request.id = i;
      request.features.resize(
          static_cast<std::size_t>(dataset.num_features()));
      for (auto& f : request.features) {
        f = static_cast<float>(unit(rng)) * 0.25f;
      }
      const auto degree = 1 + static_cast<std::int64_t>(rng() % 5);
      for (std::int64_t d = 0; d < degree; ++d) {
        request.neighbors.push_back(
            static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                          nodes)));
      }
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ------------------------------------------------ row == full graph ----

/// Every registry algorithm plus the dtype/lane specs of dl_test's
/// aggregation oracle.
std::vector<std::string> all_specs() {
  std::vector<std::string> specs;
  for (const auto& entry : fp::AlgorithmRegistry::instance().entries()) {
    specs.push_back(entry.name);
  }
  for (const char* name :
       {"serial@bf16:f32", "kahan@bf16:f32", "serial@bf16:bf16",
        "serial@f32:f64", "superaccumulator@bf16:f32", "pairwise@simd8",
        "serial@simd4", "kahan@simd8", "klein@simd16",
        "kahan@simd8:bf16:f32"}) {
    specs.emplace_back(name);
  }
  return specs;
}

/// Asserts `row` equals row `r` of `full` bit for bit.
void expect_row_bits(const std::vector<float>& row, const dl::Matrix& full,
                     std::int64_t r, const std::string& label) {
  const std::int64_t cols = full.size(1);
  ASSERT_EQ(static_cast<std::int64_t>(row.size()), cols) << label;
  for (std::int64_t c = 0; c < cols; ++c) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(row[static_cast<std::size_t>(c)]),
              std::bit_cast<std::uint32_t>(full.flat(r * cols + c)))
        << label << " col=" << c;
  }
}

// The oracle is the offline full-graph forward, which runs no serving
// code: every deployed node, served alone and inside one batch of all
// nodes on a 4-thread pool.
TEST(InferenceSession, DeployedRowsReproduceFullGraphForwardBitwise) {
  const ServeWorld world;
  util::ThreadPool pool(4);
  const std::int64_t nodes = world.dataset.num_nodes();
  std::vector<Request> requests;
  for (std::int64_t node = 0; node < nodes; ++node) {
    requests.push_back(InferenceSession::deployed_request(
        world.dataset, node, static_cast<std::uint64_t>(node)));
  }
  for (const std::string& spec_text : all_specs()) {
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec(spec_text);
    const dl::Matrix full = world.model.forward(
        dl::Matrix(world.dataset.features), world.dataset.graph, ctx);
    const InferenceSession session = world.session(*ctx.accumulator);
    const auto batched = session.batch_forward(requests, ctx.with_pool(&pool));
    ASSERT_EQ(batched.size(), requests.size());
    for (std::int64_t node = 0; node < nodes; ++node) {
      const auto i = static_cast<std::size_t>(node);
      const std::string label =
          "spec=" + spec_text + " node=" + std::to_string(node);
      expect_row_bits(session.row_forward(requests[i], ctx), full, node,
                      label + " row_forward");
      ASSERT_EQ(batched[i].error, nullptr) << label;
      expect_row_bits(batched[i].log_probs, full, node,
                      label + " batch_forward");
    }
  }
}

// A never-seen request is served as if it were node n of the deployed
// graph plus itself: its feature row appended, and one edge
// neighbour -> n per listed neighbour, in list order (the order n's
// aggregation folds them). The deployed nodes' rows do not change, as n
// sends no message. Oracle: the offline forward over that graph.
TEST(InferenceSession, NewRequestsReproduceAppendedNodeForwardBitwise) {
  const ServeWorld world;
  const dl::Dataset& ds = world.dataset;
  const std::int64_t n = ds.num_nodes(), f = ds.num_features();
  std::vector<Request> requests = make_requests(ds, 20);
  Request lonely;  // no neighbours: both means are zero rows
  lonely.features.assign(static_cast<std::size_t>(f), 0.5f);
  requests.push_back(lonely);
  Request repeated;  // duplicate neighbours count twice in the mean
  repeated.features.assign(static_cast<std::size_t>(f), -0.0f);
  repeated.neighbors = {3, 3, 7, 3, n - 1};
  requests.push_back(repeated);
  Request signed_zero;  // alternating -0.0 and +0.0 features
  for (std::int64_t j = 0; j < f; ++j) {
    signed_zero.features.push_back(j % 2 == 0 ? -0.0f : 0.0f);
  }
  signed_zero.neighbors = {0, 1};
  requests.push_back(signed_zero);
  Request large;  // cancelling magnitudes
  for (std::int64_t j = 0; j < f; ++j) {
    large.features.push_back(j % 3 == 0 ? 1e8f : (j % 3 == 1 ? -1e8f : 1.0f));
  }
  large.neighbors = {5, 11, 17};
  requests.push_back(large);
  Request single;  // one neighbour
  single.features = requests[1].features;
  single.neighbors = {n / 2};
  requests.push_back(single);
  Request deployed = InferenceSession::deployed_request(ds, 9, 0);
  deployed.neighbors.push_back(9);  // node 9's request plus node 9 itself
  requests.push_back(deployed);
  ASSERT_EQ(requests.size(), 26u);

  for (const char* spec_text : kSpecs) {
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec(spec_text);
    const InferenceSession session = world.session(*ctx.accumulator);
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const Request& request = requests[r];
      dl::Graph graph(n + 1);
      for (std::size_t e = 0; e < ds.graph.edge_src().size(); ++e) {
        graph.add_edge(ds.graph.edge_src()[e], ds.graph.edge_dst()[e]);
      }
      for (const std::int64_t u : request.neighbors) graph.add_edge(u, n);
      dl::Matrix features(tensor::Shape{n + 1, f}, 0.0f);
      std::copy(ds.features.data().begin(), ds.features.data().end(),
                features.data().begin());
      std::copy(request.features.begin(), request.features.end(),
                features.data().begin() + n * f);
      const dl::Matrix full = world.model.forward(features, graph, ctx);
      expect_row_bits(session.row_forward(request, ctx), full, n,
                      std::string("spec=") + spec_text +
                          " request=" + std::to_string(r));
    }
  }
}

// ---------------------------------------------- the invariance grid ----

TEST(InferenceServer, BitsInvariantToBatchCapThreadsAndComposition) {
  const ServeWorld world;
  const auto requests = make_requests(world.dataset, 32);
  const std::size_t kCaps[] = {1, 2, 8, 64};
  const std::size_t kThreads[] = {1, 2, 8};

  for (const char* spec_text : kSpecs) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(spec_text);
    const InferenceSession session = world.session(spec);

    // Reference: each request alone, serial, no server in sight.
    core::EvalContext ref_ctx;
    ref_ctx.accumulator = spec;
    std::vector<std::vector<float>> reference;
    reference.reserve(requests.size());
    for (const auto& request : requests) {
      reference.push_back(session.row_forward(request, ref_ctx));
    }

    for (const std::size_t cap : kCaps) {
      for (const std::size_t threads : kThreads) {
        util::ThreadPool pool(threads);
        ServerConfig config;
        config.max_batch = cap;
        config.max_wait = std::chrono::nanoseconds(50'000);
        config.pool = threads > 1 ? &pool : nullptr;
        config.spec = spec;
        InferenceServer server(session, config);
        std::vector<std::future<InferenceResult>> futures;
        futures.reserve(requests.size());
        for (const auto& request : requests) {
          futures.push_back(server.submit(request));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const InferenceResult result = futures[i].get();
          EXPECT_TRUE(bitwise_equal(result.log_probs, reference[i]))
              << "spec=" << spec_text << " cap=" << cap
              << " threads=" << threads << " request=" << i;
        }
      }
    }
  }
}

TEST(InferenceServer, BitsInvariantToAdmissionOrder) {
  const ServeWorld world;
  const fp::ReductionSpec spec = fp::parse_reduction_spec("pairwise");
  const InferenceSession session = world.session(spec);
  auto requests = make_requests(world.dataset, 24);

  core::EvalContext ref_ctx;
  ref_ctx.accumulator = spec;
  std::map<std::uint64_t, std::vector<float>> reference;
  for (const auto& request : requests) {
    reference[request.id] = session.row_forward(request, ref_ctx);
  }

  util::Xoshiro256pp rng(3);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    std::shuffle(requests.begin(), requests.end(), rng);
    ServerConfig config;
    config.max_batch = 4;
    config.spec = spec;
    InferenceServer server(session, config);
    std::vector<std::pair<std::uint64_t, std::future<InferenceResult>>>
        futures;
    for (const auto& request : requests) {
      futures.emplace_back(request.id, server.submit(request));
    }
    for (auto& [id, future] : futures) {
      EXPECT_TRUE(bitwise_equal(future.get().log_probs, reference[id]))
          << "shuffle=" << shuffle << " id=" << id;
    }
  }
}

// ------------------------------------------------- overload burst ------

TEST(InferenceServer, OverloadBurstNeverDropsOrCorrupts) {
  const ServeWorld world;
  const fp::ReductionSpec spec = fp::parse_reduction_spec("kahan@simd8:bf16:f32");
  const InferenceSession session = world.session(spec);
  const auto requests = make_requests(world.dataset, 16);

  core::EvalContext ref_ctx;
  ref_ctx.accumulator = spec;
  std::vector<std::vector<float>> reference;
  for (const auto& request : requests) {
    reference.push_back(session.row_forward(request, ref_ctx));
  }

  // Queue of 4 against 4 producers x 50 submissions each: admission
  // backpressure must block producers, never drop, and every future
  // must carry the reference bits.
  ServerConfig config;
  config.max_batch = 8;
  config.max_queue = 4;
  config.spec = spec;
  InferenceServer server(session, config);

  constexpr std::size_t kProducers = 4, kPerProducer = 50;
  std::atomic<std::size_t> correct{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Xoshiro256pp rng(1000 + p);
      for (std::size_t s = 0; s < kPerProducer; ++s) {
        const std::size_t pick = rng() % requests.size();
        auto future = server.submit(requests[pick]);
        if (bitwise_equal(future.get().log_probs, reference[pick])) {
          correct.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(correct.load(), kProducers * kPerProducer);
}

// ----------------------------------------- join-and-rethrow audit ------

TEST(InferenceServer, InjectedRowThrowFailsOnlyOwningRequests) {
  const ServeWorld world;
  const fp::ReductionSpec spec{};
  const InferenceSession session = world.session(spec);
  const auto requests = make_requests(world.dataset, 24);

  core::EvalContext ref_ctx;
  std::vector<std::vector<float>> reference;
  for (const auto& request : requests) {
    reference.push_back(session.row_forward(request, ref_ctx));
  }

  util::ThreadPool pool(4);
  ServerConfig config;
  config.max_batch = 8;
  config.pool = &pool;
  config.fault_hook = [](const Request& request) {
    if (request.id % 5 == 0) {
      throw std::runtime_error("injected fault for request " +
                               std::to_string(request.id));
    }
  };
  InferenceServer server(session, config);
  std::vector<std::future<InferenceResult>> futures;
  for (const auto& request : requests) {
    futures.push_back(server.submit(request));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (requests[i].id % 5 == 0) {
      EXPECT_THROW(futures[i].get(), std::runtime_error) << "request " << i;
    } else {
      // Batch-mates of a throwing row are unharmed, bit for bit.
      EXPECT_TRUE(bitwise_equal(futures[i].get().log_probs, reference[i]))
          << "request " << i;
    }
  }
  // The server survives the faults: a clean batch still serves.
  auto after = server.submit(requests[1]);
  EXPECT_TRUE(bitwise_equal(after.get().log_probs, reference[1]));
}

TEST(InferenceSession, BadNeighbourFailsOnlyItsOwnRow) {
  const ServeWorld world;
  util::ThreadPool pool(4);
  for (const char* spec_text : kSpecs) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(spec_text);
    const InferenceSession session = world.session(spec);
    core::EvalContext ctx;
    ctx.accumulator = spec;
    auto requests = make_requests(world.dataset, 7);
    std::vector<std::vector<float>> solo;
    for (const auto& request : requests) {
      solo.push_back(session.row_forward(request, ctx));
    }
    requests[1].neighbors.push_back(world.dataset.num_nodes() + 5);  // bad id
    requests[4].neighbors.insert(requests[4].neighbors.begin(), -1);
    requests[5].features.pop_back();  // wrong width
    for (const core::EvalContext& run : {ctx, ctx.with_pool(&pool)}) {
      const std::string label = std::string("spec=") + spec_text +
                                (run.pool != nullptr ? " pool" : " serial");
      const auto outcomes = session.batch_forward(requests, run);
      ASSERT_EQ(outcomes.size(), requests.size());
      for (const std::size_t i : {1u, 4u}) {
        ASSERT_NE(outcomes[i].error, nullptr) << label << " row " << i;
        EXPECT_THROW(std::rethrow_exception(outcomes[i].error),
                     std::out_of_range) << label << " row " << i;
        EXPECT_TRUE(outcomes[i].log_probs.empty());
      }
      ASSERT_NE(outcomes[5].error, nullptr) << label;
      EXPECT_THROW(std::rethrow_exception(outcomes[5].error),
                   std::invalid_argument) << label;
      for (const std::size_t i : {0u, 2u, 3u, 6u}) {
        EXPECT_EQ(outcomes[i].error, nullptr) << label << " row " << i;
        EXPECT_TRUE(bitwise_equal(outcomes[i].log_probs, solo[i]))
            << label << " row " << i;
      }
      EXPECT_THROW((void)session.row_forward(requests[5], run),
                   std::invalid_argument) << label;
    }
  }
}

TEST(InferenceSession, BatchWhereEveryRowFailsReportsEveryRow) {
  const ServeWorld world;
  const InferenceSession session = world.session(fp::ReductionSpec{});
  util::ThreadPool pool(4);
  auto requests = make_requests(world.dataset, 5);
  requests[0].neighbors.push_back(world.dataset.num_nodes());
  requests[1].features.clear();
  requests[2].neighbors.push_back(-3);
  requests[3].features.push_back(1.0f);
  requests[4].neighbors.push_back(1'000'000);
  obs::Recorder recorder;
  core::EvalContext ctx;
  ctx.recorder = &recorder;
  for (const core::EvalContext& run : {ctx, ctx.with_pool(&pool)}) {
    const auto outcomes = session.batch_forward(requests, run);
    ASSERT_EQ(outcomes.size(), requests.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_NE(outcomes[i].error, nullptr) << "row " << i;
      EXPECT_TRUE(outcomes[i].log_probs.empty()) << "row " << i;
    }
  }
  // Each failed request leaves one "error" record and nothing else: the
  // dense kernels run untraced, so no dl.* record appears.
  std::size_t errors = 0;
  for (const auto& p : recorder.sorted_provenance()) {
    EXPECT_EQ(p.record.site, "serve.request");
    EXPECT_EQ(p.record.kind, "error");
    ++errors;
  }
  EXPECT_EQ(errors, 2 * requests.size());
}

// A traced batch records its requests, never the dense kernels' batch
// matrices (whose bits depend on the batch composition).
TEST(InferenceSession, TracedBatchEmitsOnlyServeRecords) {
  const ServeWorld world;
  const InferenceSession session = world.session(fp::ReductionSpec{});
  util::ThreadPool pool(4);
  obs::Recorder recorder;
  core::EvalContext ctx;
  ctx.recorder = &recorder;
  const auto requests = make_requests(world.dataset, 6);
  (void)session.batch_forward(requests, ctx);
  (void)session.batch_forward(requests, ctx.with_pool(&pool));
  std::size_t records = 0;
  for (const auto& p : recorder.sorted_provenance()) {
    EXPECT_EQ(p.record.site, "serve.request");
    EXPECT_EQ(p.record.kind, "result");
    ++records;
  }
  EXPECT_EQ(records, 2 * requests.size());
}

// --------------------------------------------------- MPSC queue --------

TEST(MpscQueue, FifoPerProducerAndNothingLost) {
  MpscQueue<std::pair<int, int>> queue(64);
  constexpr int kProducers = 4, kItems = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kItems; ++i) {
        ASSERT_TRUE(queue.push({p, i}));
      }
    });
  }
  std::deque<std::pair<int, int>> drained;
  while (drained.size() < kProducers * kItems) {
    queue.drain(drained, std::chrono::nanoseconds(1'000'000));
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(kProducers * kItems));
  // Global FIFO implies per-producer FIFO: each producer's items appear
  // in submission order.
  int last_seen[kProducers];
  std::fill(last_seen, last_seen + kProducers, -1);
  for (const auto& [p, i] : drained) {
    EXPECT_GT(i, last_seen[p]);
    last_seen[p] = i;
  }
}

TEST(MpscQueue, CloseWakesBlockedProducers) {
  MpscQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));  // fills the queue
  std::atomic<bool> returned{false};
  std::thread blocked([&] {
    const bool pushed = queue.push(2);  // blocks: no capacity
    EXPECT_FALSE(pushed);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue.close();
  blocked.join();
  EXPECT_TRUE(returned.load());
  // The admitted item is still drainable after close.
  std::deque<int> drained;
  queue.drain(drained, std::chrono::nanoseconds(0));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained.front(), 1);
}

// ------------------------------------------------ open-loop driver -----

TEST(OpenLoop, SeededArrivalsAreDeterministic) {
  const auto a = exponential_interarrivals_ns(5000.0, 256, 11);
  const auto b = exponential_interarrivals_ns(5000.0, 256, 11);
  EXPECT_EQ(a, b);
  const auto c = exponential_interarrivals_ns(5000.0, 256, 12);
  EXPECT_NE(a, c);
  // Mean gap should sit near 1/rate = 200us.
  double mean_ns = 0.0;
  for (const auto gap : a) mean_ns += static_cast<double>(gap);
  mean_ns /= static_cast<double>(a.size());
  EXPECT_GT(mean_ns, 100'000.0);
  EXPECT_LT(mean_ns, 400'000.0);
}

TEST(OpenLoop, DrivenServerReproducesReferenceBits) {
  const ServeWorld world;
  const fp::ReductionSpec spec = fp::parse_reduction_spec("pairwise");
  const InferenceSession session = world.session(spec);
  const auto requests = make_requests(world.dataset, 20);

  core::EvalContext ref_ctx;
  ref_ctx.accumulator = spec;
  obs::Fingerprint expected;
  for (const auto& request : requests) {
    const auto row = session.row_forward(request, ref_ctx);
    expected.feed(std::span<const float>(row));
  }

  ServerConfig config;
  config.max_batch = 4;
  config.spec = spec;
  InferenceServer server(session, config);
  const auto gaps = exponential_interarrivals_ns(20'000.0, requests.size(),
                                                 5);
  const OpenLoopResult result = run_open_loop(server, requests, gaps);
  EXPECT_EQ(result.latency.completed, requests.size());
  EXPECT_EQ(result.latency.failed, 0u);
  EXPECT_EQ(result.bits, expected.value());
}

TEST(OpenLoop, SimulatedBatchingAmortisesDispatch) {
  ServiceModel model;
  model.dispatch_us = 10.0;
  model.per_row_us = 1.0;
  // Arrivals at 150k rps = 6.7us mean gaps; unbatched (cap 1) needs
  // 11us of server time per request - past saturation, so its queue and
  // tail grow without bound - while cap 16 amortises the 10us dispatch
  // across whole batches (26us per 16 arrivals) and keeps up.
  const auto unbatched =
      simulate_open_loop(model, 1, 0.0, 150'000.0, 200'000, 31);
  const auto batched =
      simulate_open_loop(model, 16, 100.0, 150'000.0, 200'000, 31);
  EXPECT_GT(batched.throughput_rps, unbatched.throughput_rps);
  EXPECT_LT(batched.p99_us, unbatched.p99_us);
  // Determinism: same seed, same numbers.
  const auto again =
      simulate_open_loop(model, 16, 100.0, 150'000.0, 200'000, 31);
  EXPECT_EQ(batched.p99_us, again.p99_us);
  EXPECT_EQ(batched.throughput_rps, again.throughput_rps);
}

}  // namespace
}  // namespace fpna::serve
