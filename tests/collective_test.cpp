// Unit and property tests for fpna::collective: simulated MPI-style
// allreduce variants (the paper's SVI future-work direction) - ring,
// recursive doubling, arrival-order tree and the reproducible
// superaccumulator exchange.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fpna/collective/allreduce.hpp"
#include "fpna/core/chunking.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::collective {
namespace {

RankData random_rank_data(std::size_t ranks, std::size_t n,
                          std::uint64_t seed, double lo = -1e6,
                          double hi = 1e6) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(lo, hi);
  RankData data(ranks, std::vector<double>(n));
  for (auto& rank : data) {
    for (auto& x : rank) x = dist(rng);
  }
  return data;
}

TEST(Allreduce, ValidatesShapes) {
  EXPECT_THROW(validate(RankData{}), std::invalid_argument);
  RankData ragged{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(validate(ragged), std::invalid_argument);
  EXPECT_THROW(allreduce_ring(ragged), std::invalid_argument);
}

TEST(Allreduce, SingleRankIsIdentity) {
  const RankData one{{1.5, -2.5, 3.0}};
  EXPECT_EQ(allreduce_ring(one), one[0]);
  EXPECT_EQ(allreduce_recursive_doubling(one), one[0]);
  EXPECT_EQ(allreduce_reproducible(one), one[0]);
}

TEST(Allreduce, AllVariantsAgreeOnExactData) {
  // Integer-valued contributions sum exactly: all algorithms must agree.
  RankData data(5, std::vector<double>(16));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t i = 0; i < 16; ++i) {
      data[r][i] = static_cast<double>(r * 16 + i);
    }
  }
  const auto ring = allreduce_ring(data);
  const auto rd = allreduce_recursive_doubling(data);
  const auto repro = allreduce_reproducible(data);
  core::RunContext ctx(1, 0);
  const auto arrival = allreduce_arrival_tree(data, ctx);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(ring[i], repro[i]);
    EXPECT_EQ(rd[i], repro[i]);
    EXPECT_EQ(arrival[i], repro[i]);
  }
}

TEST(Allreduce, AllVariantsCloseToExactOnRandomData) {
  const auto data = random_rank_data(8, 64, 7);
  const auto repro = allreduce_reproducible(data);
  core::RunContext ctx(2, 0);
  for (const auto& result :
       {allreduce_ring(data), allreduce_recursive_doubling(data),
        allreduce_arrival_tree(data, ctx)}) {
    for (std::size_t i = 0; i < repro.size(); ++i) {
      EXPECT_NEAR(result[i], repro[i], std::fabs(repro[i]) * 1e-13 + 1e-9);
    }
  }
}

TEST(Allreduce, RingAndButterflyAreDeterministicButDiffer) {
  const auto data = random_rank_data(7, 256, 11);
  const auto ring_kernel = [&](core::RunContext&) {
    return allreduce_ring(data);
  };
  const auto rd_kernel = [&](core::RunContext&) {
    return allreduce_recursive_doubling(data);
  };
  EXPECT_TRUE(core::certify_deterministic(ring_kernel, 5, 3).deterministic);
  EXPECT_TRUE(core::certify_deterministic(rd_kernel, 5, 3).deterministic);
  // Different association => generally different bits somewhere (the MPI
  // algorithm-selection hazard).
  const auto ring = allreduce_ring(data);
  const auto rd = allreduce_recursive_doubling(data);
  EXPECT_GT(core::vc(ring, rd), 0.0);
}

TEST(Allreduce, ArrivalTreeIsNonDeterministic) {
  const auto data = random_rank_data(16, 512, 13);
  const auto kernel = [&](core::RunContext& ctx) {
    return allreduce_arrival_tree(data, ctx);
  };
  const auto cert = core::certify_deterministic(kernel, 10, 5);
  EXPECT_FALSE(cert.deterministic);
}

TEST(Allreduce, ReproducibleInvariantToArrivalAndPermutation) {
  auto data = random_rank_data(9, 128, 17);
  const auto reference = allreduce_reproducible(data);
  // Permuting the ranks must not change a single bit.
  std::rotate(data.begin(), data.begin() + 4, data.end());
  const auto rotated = allreduce_reproducible(data);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(fp::bitwise_equal(reference[i], rotated[i]));
  }
}

TEST(Allreduce, RecursiveDoublingHandlesNonPowerOfTwo) {
  for (const std::size_t ranks : {3u, 5u, 6u, 7u, 12u}) {
    const auto data = random_rank_data(ranks, 32, 19 + ranks);
    const auto result = allreduce_recursive_doubling(data);
    const auto exact = allreduce_reproducible(data);
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(result[i], exact[i], std::fabs(exact[i]) * 1e-13 + 1e-9);
    }
  }
}

// ------------------------------------------------------ distributed sum --

TEST(DistributedSum, ShardPartitionsEverything) {
  std::vector<double> data(103);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = double(i);
  const auto shards = shard(data, 7);
  ASSERT_EQ(shards.size(), 7u);
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  EXPECT_EQ(total, data.size());
  // Order preserved: concatenation reproduces the data.
  std::vector<double> cat;
  for (const auto& s : shards) cat.insert(cat.end(), s.begin(), s.end());
  EXPECT_EQ(cat, data);
}

TEST(DistributedSum, MatchesAlgorithms) {
  util::Xoshiro256pp rng(23);
  const util::UniformReal dist(-1.0, 1.0);
  std::vector<double> data(10000);
  for (auto& x : data) x = dist(rng);

  const double exact = fp::Superaccumulator::sum(data);
  EXPECT_EQ(distributed_sum(data, 8, Algorithm::kReproducible, {}), exact);

  core::RunContext ctx(3, 0);
  for (const auto algorithm :
       {Algorithm::kRing, Algorithm::kRecursiveDoubling,
        Algorithm::kArrivalTree}) {
    const double value =
        distributed_sum(data, 8, algorithm, core::EvalContext{.run = &ctx});
    EXPECT_NEAR(value, exact, std::fabs(exact) * 1e-12 + 1e-9)
        << to_string(algorithm);
  }
}

TEST(DistributedSum, ReproducibleInvariantToRankCount) {
  util::Xoshiro256pp rng(29);
  const util::UniformReal dist(-1e3, 1e3);
  std::vector<double> data(4321);
  for (auto& x : data) x = dist(rng);

  const double reference =
      distributed_sum(data, 1, Algorithm::kReproducible, {});
  for (const std::size_t ranks : {2u, 3u, 8u, 16u, 64u}) {
    EXPECT_TRUE(fp::bitwise_equal(
        distributed_sum(data, ranks, Algorithm::kReproducible, {}), reference));
  }
  // The ring sum, by contrast, depends on the rank count (different
  // association).
  const double ring1 = distributed_sum(data, 2, Algorithm::kRing, {});
  const double ring2 = distributed_sum(data, 64, Algorithm::kRing, {});
  EXPECT_FALSE(fp::bitwise_equal(ring1, ring2));
}

TEST(DistributedSum, ArrivalTreeVariesAcrossRuns) {
  util::Xoshiro256pp rng(31);
  const util::UniformReal dist(-1e6, 1e6);
  std::vector<double> data(50000);
  for (auto& x : data) x = dist(rng);

  const auto kernel = [&](core::RunContext& ctx) {
    return distributed_sum(data, 16, Algorithm::kArrivalTree,
                           core::EvalContext{.run = &ctx});
  };
  EXPECT_FALSE(core::certify_deterministic_scalar(kernel, 20, 7).deterministic);
}

TEST(DistributedSum, Validation) {
  const std::vector<double> data{1.0};
  EXPECT_THROW(distributed_sum(data, 0, Algorithm::kRing, {}),
               std::invalid_argument);
  EXPECT_THROW(distributed_sum(data, 2, Algorithm::kArrivalTree,
                               core::EvalContext{}),
               std::invalid_argument);
}

TEST(DistributedSum, MetadataHelpers) {
  EXPECT_TRUE(is_deterministic(Algorithm::kRing));
  EXPECT_TRUE(is_deterministic(Algorithm::kReproducible));
  EXPECT_FALSE(is_deterministic(Algorithm::kArrivalTree));
  EXPECT_STREQ(to_string(Algorithm::kRecursiveDoubling),
               "recursive-doubling");
}

// The collective wrappers delegate to core/chunking.hpp; these pins mean
// a change to the shared rules cannot silently move wire boundaries (and
// with them the certified bits of every schedule-based reduction).
TEST(Chunking, RingChunkIsTheCeilRuleAndShardSizesTheEvenRule) {
  for (const std::size_t total : {0u, 1u, 9u, 64u, 1000u}) {
    for (const std::size_t ranks : {1u, 2u, 3u, 8u, 41u}) {
      std::size_t shard_total = 0;
      const auto sizes = shard_sizes(total, ranks);
      ASSERT_EQ(sizes.size(), ranks);
      for (std::size_t r = 0; r < ranks; ++r) {
        EXPECT_EQ(ring_chunk(total, ranks, r),
                  core::ceil_chunk(total, ranks, r));
        EXPECT_EQ(sizes[r], core::even_chunk_size(total, ranks, r));
        shard_total += sizes[r];
      }
      EXPECT_EQ(shard_total, total);
    }
  }
  EXPECT_THROW(ring_chunk(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_sizes(10, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fpna::collective
