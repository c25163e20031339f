#pragma once
// Simulated multi-rank collectives (the paper's SVI future work: "in HPC
// and distributed settings there will also be inter-chip and inter-node
// communication, such as with MPI, leading to more runtime variation").
//
// The MPI standard, like OpenMP, does not fix the combining order of
// reduction collectives; implementations choose algorithms at runtime and
// in-network (switch-offloaded) reductions combine partial messages in
// *arrival order*. This module models a P-rank job:
//
//   * ring            - reduce-scatter + allgather ring: combining order
//                       is a pure function of (P, rank layout) =>
//                       deterministic, every rank gets identical bits;
//   * recursive       - recursive-doubling butterfly: also deterministic,
//     doubling          but a *different* association than the ring (so
//                       changing algorithm changes bits - the MPI
//                       algorithm-selection hazard);
//   * arrival tree    - in-network/tree combining in arrival order drawn
//                       from the RunContext => non-deterministic run to
//                       run, like switch-offloaded allreduce;
//   * reproducible    - superaccumulator exchange: bitwise identical for
//                       any arrival order, any P, and any way the data is
//                       sharded across ranks.
//
// All variants return the allreduced (summed) vector each rank observes;
// deterministic variants are certified in tests with the core harness.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/core/run_context.hpp"

namespace fpna::collective {

/// Per-rank input: contributions[r] is rank r's local vector; all ranks
/// must agree on the element count. The element type is the *wire/compute*
/// type: allreduce of FP32 buffers (the deep learning case) accumulates in
/// FP32, exactly as NCCL/MPI reductions do.
template <typename T>
using RankDataT = std::vector<std::vector<T>>;
using RankData = RankDataT<double>;
using RankDataF = RankDataT<float>;

/// Validates shape (>= 1 rank, equal lengths); throws std::invalid_argument.
template <typename T>
void validate(const RankDataT<T>& contributions);

/// Ring allreduce (reduce-scatter + allgather). Deterministic: chunk c is
/// accumulated starting at rank (c+1) % P and walks the ring in a fixed
/// order. Returns the vector every rank ends up with.
template <typename T>
std::vector<T> allreduce_ring(const RankDataT<T>& contributions);

/// Recursive-doubling allreduce. Deterministic; association differs from
/// the ring (pairwise tree over ranks), so its result generally differs
/// from allreduce_ring in the last bits.
template <typename T>
std::vector<T> allreduce_recursive_doubling(const RankDataT<T>& contributions);

/// In-network ("switch offload") allreduce: the reduction tree combines
/// rank messages in arrival order, drawn per element-block from `ctx`.
/// Non-deterministic run to run.
template <typename T>
std::vector<T> allreduce_arrival_tree(const RankDataT<T>& contributions,
                                      core::RunContext& ctx,
                                      std::size_t block_elements = 1024);

/// Reproducible allreduce: each rank contributes a superaccumulator;
/// merging is exact, so the rounded result is bitwise independent of
/// arrival order, rank count, and sharding (property-tested).
template <typename T>
std::vector<T> allreduce_reproducible(const RankDataT<T>& contributions);

/// Contiguous shard lengths for `total` items over `ranks` ranks (the
/// first total % ranks shards are one longer). The one split rule every
/// sharded consumer (distributed_sum, comm, the data-parallel trainer)
/// agrees on.
std::vector<std::size_t> shard_sizes(std::size_t total, std::size_t ranks);

/// The ring collective's chunk boundary rule: chunk c of `total` elements
/// over `ranks` ranks is [min(total, c*ceil(total/ranks)), min(total,
/// (c+1)*ceil(total/ranks))). Shared with comm::CollectiveSchedule so the
/// wire-level reduce-scatter schedule and the in-process ring collective
/// agree on every boundary - and therefore on every bit.
std::pair<std::size_t, std::size_t> ring_chunk(std::size_t total,
                                               std::size_t ranks,
                                               std::size_t chunk_index);

/// Splits one global vector into P contiguous shards (for the distributed
/// sum below; shards may differ in length by one element).
RankData shard(std::span<const double> data, std::size_t ranks);

enum class Algorithm {
  kRing,
  kRecursiveDoubling,
  kArrivalTree,   // non-deterministic
  kReproducible,  // bitwise invariant to arrival order AND rank count
};

const char* to_string(Algorithm algorithm) noexcept;
bool is_deterministic(Algorithm algorithm) noexcept;

/// Unified dispatcher: runs the selected collective under an EvalContext.
/// kArrivalTree draws its arrival orders from ctx.run (required for that
/// algorithm only); the deterministic variants ignore the context's run.
template <typename T>
std::vector<T> allreduce(const RankDataT<T>& contributions,
                         Algorithm algorithm, const core::EvalContext& ctx,
                         std::size_t block_elements = 1024);

/// Distributed sum of one logical data set: shard across `ranks`, reduce
/// each shard locally through the context's registry-selected accumulator
/// (exact-state merge for kReproducible), then combine the per-rank
/// partials with the chosen collective. ctx.run is required for (and only
/// consumed by) kArrivalTree. The reproducible algorithm returns
/// bitwise-identical results for every rank count and every arrival order
/// - the "MPI-safe" reduction (property-tested).
double distributed_sum(std::span<const double> data, std::size_t ranks,
                       Algorithm algorithm, const core::EvalContext& ctx);

}  // namespace fpna::collective
