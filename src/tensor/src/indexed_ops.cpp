#include "fpna/tensor/indexed_ops.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "fpna/fp/accumulator.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/sim/scheduler.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::tensor {

const char* to_string(Reduce reduce) noexcept {
  switch (reduce) {
    case Reduce::kSum: return "sum";
    case Reduce::kMean: return "mean";
    case Reduce::kProd: return "prod";
    case Reduce::kAmax: return "amax";
    case Reduce::kAmin: return "amin";
  }
  return "?";
}

namespace {

/// One atomic update: source element `src` lands on destination element
/// `dst` (both flat offsets).
struct Contribution {
  std::int64_t dst;
  std::int64_t src;
};

/// The commit order of the contributions: identity for the deterministic
/// path, a contention-aware scheduler draw for the non-deterministic one.
///
/// Contention model: same-address atomics funnel through a per-address
/// queue. When an address is heavily contended (c contributions), the
/// queue saturates and drains in issue order - back-pressure serialises
/// the pipeline - so with probability 1 - 1/c^2 the address's
/// contributions commit FIFO this run. Lightly contended addresses
/// (c = 2, 3) are races between a few in-flight requests whose winner is
/// scheduler/latency jitter, i.e. effectively random order.
///
/// This reproduces the paper's Fig. 3/4 phenomenology: variability
/// *grows* with the reduction ratio R, because small R means high
/// per-address contention and therefore near-FIFO (reproducible) commit
/// despite the many collisions, while R near 1 leaves exactly the racy
/// two-way collisions that reorder run to run.
std::vector<std::size_t> commit_order(const std::vector<Contribution>& contribs,
                                      std::int64_t out_numel,
                                      const core::EvalContext& ctx,
                                      bool is_store = false) {
  const std::size_t n = contribs.size();
  if (!ctx.nondeterministic()) {
    std::vector<std::size_t> identity(n);
    for (std::size_t i = 0; i < n; ++i) identity[i] = i;
    return identity;
  }
  auto& rng = ctx.run->rng();

  // Global scheduler jitter: any interleaving of distinct addresses is
  // fair game (it cannot change accumulation values; it exists so the
  // write-race ops see realistic cross-address orders too).
  std::vector<std::size_t> order = util::random_permutation(n, rng);

  // Per-destination contention counts.
  std::vector<std::uint32_t> count(static_cast<std::size_t>(out_numel), 0);
  for (const auto& c : contribs) ++count[static_cast<std::size_t>(c.dst)];

  // Mean queue depth g = contributions per output element. The race
  // probability falls as 1/g^2: once the atomic pipeline is saturated,
  // back-pressure drains queues in issue order and the jitter window that
  // lets two requests swap shrinks with the queue depth (calibrated
  // against the paper's Fig. 4 index_add curve, which is ~linear in R).
  const double g = std::max(
      1.0, static_cast<double>(n) /
               static_cast<double>(std::max<std::int64_t>(1, out_numel)));
  double race_probability = std::min(1.0, 1.0 / (g * g));
  // Stores only flip their winner when the final two writes race; see
  // core::EvalContext::store_race_scale.
  if (is_store) race_probability *= ctx.store_race_scale;

  // Decide per destination whether its queue drains FIFO this run.
  std::vector<char> fifo(static_cast<std::size_t>(out_numel), 0);
  for (std::int64_t d = 0; d < out_numel; ++d) {
    if (count[static_cast<std::size_t>(d)] < 2) continue;
    fifo[static_cast<std::size_t>(d)] =
        util::canonical(rng) >= race_probability;
  }

  // Restore issue order among each FIFO destination's contributions while
  // keeping their commit *slots* (stable within the global interleaving).
  std::vector<std::vector<std::size_t>> slots_of(
      static_cast<std::size_t>(out_numel));
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto d = static_cast<std::size_t>(contribs[order[pos]].dst);
    if (fifo[d]) slots_of[d].push_back(pos);
  }
  for (std::int64_t d = 0; d < out_numel; ++d) {
    auto& slots = slots_of[static_cast<std::size_t>(d)];
    if (slots.size() < 2) continue;
    std::vector<std::size_t> members;
    members.reserve(slots.size());
    for (const std::size_t pos : slots) members.push_back(order[pos]);
    std::sort(members.begin(), members.end());  // issue order
    for (std::size_t i = 0; i < slots.size(); ++i) {
      order[slots[i]] = members[i];
    }
  }
  return order;
}

void check_dim(std::int64_t dim, std::int64_t rank, const char* op) {
  if (dim < 0 || dim >= rank) {
    throw std::out_of_range(std::string(op) + ": dim " + std::to_string(dim) +
                            " out of range for rank " + std::to_string(rank));
  }
}

/// Decomposes a flat offset of `t` into coordinates (row-major).
template <typename T>
void unravel(const Tensor<T>& t, std::int64_t flat,
             std::vector<std::int64_t>& coords) {
  const auto& strides = t.strides();
  coords.resize(strides.size());
  for (std::size_t d = 0; d < strides.size(); ++d) {
    coords[d] = flat / strides[d];
    flat %= strides[d];
  }
}

/// Builds the contribution list of index_add / index_copy: source slice k
/// (along `dim`) maps onto destination slice index[k].
template <typename T>
std::vector<Contribution> slice_contributions(
    const Tensor<T>& out, std::int64_t dim,
    const Tensor<std::int64_t>& index, const Tensor<T>& source,
    const char* op) {
  if (source.dim() != out.dim()) {
    throw std::invalid_argument(std::string(op) + ": rank mismatch between "
                                "self and source");
  }
  for (std::int64_t d = 0; d < out.dim(); ++d) {
    if (d != dim && out.shape()[static_cast<std::size_t>(d)] !=
                        source.shape()[static_cast<std::size_t>(d)]) {
      throw std::invalid_argument(std::string(op) +
                                  ": self/source shape mismatch outside dim");
    }
  }
  if (index.numel() != source.size(dim)) {
    throw std::invalid_argument(std::string(op) +
                                ": index length must equal source.size(dim)");
  }

  std::vector<Contribution> contribs;
  contribs.reserve(static_cast<std::size_t>(source.numel()));
  std::vector<std::int64_t> coords;
  const std::int64_t out_dim_size = out.size(dim);
  for (std::int64_t s = 0; s < source.numel(); ++s) {
    unravel(source, s, coords);
    const std::int64_t k = coords[static_cast<std::size_t>(dim)];
    const std::int64_t target = index.flat(k);
    if (target < 0 || target >= out_dim_size) {
      throw std::out_of_range(std::string(op) + ": index value " +
                              std::to_string(target) + " out of range [0, " +
                              std::to_string(out_dim_size) + ")");
    }
    coords[static_cast<std::size_t>(dim)] = target;
    contribs.push_back({out.offset(coords), s});
  }
  return contribs;
}

/// Builds the contribution list of scatter / scatter_reduce: every element
/// p of src maps onto p with its `dim` coordinate replaced by index[p].
template <typename T>
std::vector<Contribution> elementwise_contributions(
    const Tensor<T>& out, std::int64_t dim,
    const Tensor<std::int64_t>& index, const Tensor<T>& src, const char* op) {
  if (src.dim() != out.dim()) {
    throw std::invalid_argument(std::string(op) +
                                ": rank mismatch between self and src");
  }
  if (index.shape() != src.shape()) {
    throw std::invalid_argument(std::string(op) +
                                ": index must have the shape of src");
  }
  for (std::int64_t d = 0; d < out.dim(); ++d) {
    if (d != dim && src.shape()[static_cast<std::size_t>(d)] >
                        out.shape()[static_cast<std::size_t>(d)]) {
      throw std::invalid_argument(std::string(op) +
                                  ": src exceeds self outside dim");
    }
  }

  std::vector<Contribution> contribs;
  contribs.reserve(static_cast<std::size_t>(src.numel()));
  std::vector<std::int64_t> coords;
  const std::int64_t out_dim_size = out.size(dim);
  for (std::int64_t s = 0; s < src.numel(); ++s) {
    unravel(src, s, coords);
    const std::int64_t target = index.flat(s);
    if (target < 0 || target >= out_dim_size) {
      throw std::out_of_range(std::string(op) + ": index value " +
                              std::to_string(target) + " out of range [0, " +
                              std::to_string(out_dim_size) + ")");
    }
    coords[static_cast<std::size_t>(dim)] = target;
    contribs.push_back({out.offset(coords), s});
  }
  return contribs;
}

/// Deterministic accumulation of `contribs` into `out` through the
/// context's registry-selected accumulator: per destination, the self
/// value seeds the accumulator (unless `seed_self` is false, the
/// scatter_reduce include_self=false case), then contributions fold in
/// issue order. The serial algorithm is special-cased to the classic
/// in-place loop - bitwise identical to the seed implementation and free
/// of the per-destination grouping cost.
/// Destination-grouped parallel execution of the deterministic reduction:
/// contributions are bucketed per destination (stable counting sort keeps
/// issue order within a destination), and the destinations split across
/// ctx.pool with parallel_for. Each destination's fold is exactly the
/// stream the serial path produces - seed with self, contributions in
/// issue order - and destinations never alias, so the result is bitwise
/// identical to the serial deterministic path for every accumulator and
/// every thread count / OS schedule, by construction.
template <typename T, typename ValueOf>
void accumulate_deterministic_pooled(Tensor<T>& out,
                                     const std::vector<Contribution>& contribs,
                                     const core::EvalContext& ctx,
                                     bool seed_self,
                                     const ValueOf& value_of) {
  const auto numel = static_cast<std::size_t>(out.numel());
  std::vector<std::size_t> offsets(numel + 1, 0);
  for (const auto& c : contribs) {
    ++offsets[static_cast<std::size_t>(c.dst) + 1];
  }
  for (std::size_t d = 0; d < numel; ++d) offsets[d + 1] += offsets[d];
  std::vector<std::size_t> grouped(contribs.size());
  {
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (std::size_t k = 0; k < contribs.size(); ++k) {
      grouped[fill[static_cast<std::size_t>(contribs[k].dst)]++] = k;
    }
  }
  std::vector<std::size_t> destinations;
  for (std::size_t d = 0; d < numel; ++d) {
    if (offsets[d + 1] > offsets[d]) destinations.push_back(d);
  }
  fp::visit_reduction<T>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        ctx.pool->parallel_for(
            destinations.size(),
            [&](std::size_t begin, std::size_t end, std::size_t) {
              for (std::size_t j = begin; j < end; ++j) {
                const std::size_t d = destinations[j];
                if constexpr (std::is_same_v<Acc, fp::SerialAccumulator<T>> &&
                              decltype(quantize)::is_identity) {
                  if (seed_self) {
                    // The classic in-place fold, not a +0.0-seeded
                    // accumulator: preserves the serial path's signed-zero
                    // bits ((-0.0) + (-0.0) stays -0.0).
                    T value = out.flat(static_cast<std::int64_t>(d));
                    for (std::size_t g = offsets[d]; g < offsets[d + 1];
                         ++g) {
                      value = static_cast<T>(value +
                                             value_of(contribs[grouped[g]]));
                    }
                    out.flat(static_cast<std::int64_t>(d)) = value;
                    continue;
                  }
                }
                Acc acc;
                if (seed_self) {
                  acc.add(static_cast<A>(
                      quantize(out.flat(static_cast<std::int64_t>(d)))));
                }
                for (std::size_t g = offsets[d]; g < offsets[d + 1]; ++g) {
                  acc.add(static_cast<A>(
                      quantize(value_of(contribs[grouped[g]]))));
                }
                out.flat(static_cast<std::int64_t>(d)) =
                    static_cast<T>(acc.result());
              }
            });
      });
}

template <typename T, typename ValueOf>
void accumulate_deterministic(Tensor<T>& out,
                              const std::vector<Contribution>& contribs,
                              const core::EvalContext& ctx, bool seed_self,
                              ValueOf&& value_of) {
  if (ctx.pool != nullptr && ctx.pool->size() > 1 && contribs.size() > 1) {
    accumulate_deterministic_pooled(out, contribs, ctx, seed_self, value_of);
    return;
  }
  fp::visit_reduction<T>(
      ctx.reduction_in_effect(), [&](auto tag, auto acc_c, auto quantize) {
        using A = typename decltype(acc_c)::type;
        using Acc = typename decltype(tag)::template accumulator_t<A>;
        if constexpr (std::is_same_v<Acc, fp::SerialAccumulator<T>> &&
                      decltype(quantize)::is_identity) {
          if (seed_self) {
            for (const auto& c : contribs) {
              out.flat(c.dst) = static_cast<T>(out.flat(c.dst) + value_of(c));
            }
            return;
          }
        }
        std::unordered_map<std::int64_t, Acc> per_destination;
        per_destination.reserve(contribs.size());
        for (const auto& c : contribs) {
          auto [it, inserted] = per_destination.try_emplace(c.dst);
          if (inserted && seed_self) {
            it->second.add(static_cast<A>(quantize(out.flat(c.dst))));
          }
          it->second.add(static_cast<A>(quantize(value_of(c))));
        }
        for (const auto& [dst, acc] : per_destination) {
          out.flat(dst) = static_cast<T>(acc.result());
        }
      });
}

/// scatter_reduce's mean epilogue: one PyTorch denominator rule for both
/// the registry-accumulator path and the commit-order path. Destinations
/// with no contribution (count 0) keep the self value untouched.
template <typename T>
void divide_mean_destinations(Tensor<T>& out,
                              const std::vector<std::int64_t>& counts,
                              bool include_self) {
  for (std::int64_t f = 0; f < out.numel(); ++f) {
    const std::int64_t count = counts[static_cast<std::size_t>(f)];
    if (count == 0) continue;
    const auto denom = static_cast<T>(count + (include_self ? 1 : 0));
    out.flat(f) = static_cast<T>(out.flat(f) / denom);
  }
}

template <typename T>
T reduce_identity(Reduce reduce) {
  switch (reduce) {
    case Reduce::kSum: return T{0};
    case Reduce::kMean: return T{0};
    case Reduce::kProd: return T{1};
    case Reduce::kAmax: return std::numeric_limits<T>::lowest();
    case Reduce::kAmin: return std::numeric_limits<T>::max();
  }
  return T{0};
}

/// Whole-tensor result fingerprint (read-only; emitted from the calling
/// thread so provenance order never depends on pool scheduling).
template <typename T>
std::uint64_t tensor_bits(const Tensor<T>& t) {
  obs::Fingerprint print;
  for (std::int64_t i = 0; i < t.numel(); ++i) print.feed(t.flat(i));
  return print.value();
}

template <typename T>
T reduce_combine(Reduce reduce, T acc, T value) {
  switch (reduce) {
    case Reduce::kSum:
    case Reduce::kMean:
      return static_cast<T>(acc + value);
    case Reduce::kProd: return static_cast<T>(acc * value);
    case Reduce::kAmax: return value > acc ? value : acc;
    case Reduce::kAmin: return value < acc ? value : acc;
  }
  return acc;
}

}  // namespace

template <typename T>
Tensor<T> index_add(const Tensor<T>& self, std::int64_t dim,
                    const Tensor<std::int64_t>& index,
                    const Tensor<T>& source, T alpha,
                    const core::EvalContext& ctx) {
  check_dim(dim, self.dim(), "index_add");
  obs::Span span(ctx.recorder, "tensor.index_add");
  Tensor<T> out = self;
  const auto contribs =
      slice_contributions(out, dim, index, source, "index_add");
  if (ctx.recorder != nullptr) {
    span.arg("contributions", static_cast<std::uint64_t>(contribs.size()));
    span.arg("numel", static_cast<std::int64_t>(out.numel()));
    span.arg("deterministic", ctx.nondeterministic() ? "no" : "yes");
    ctx.recorder->metrics().counter("tensor.index_add.calls").increment();
  }
  if (!ctx.nondeterministic()) {
    // Deterministic path: per-destination reduction through the registry
    // accumulator, contributions in issue order.
    accumulate_deterministic(out, contribs, ctx, /*seed_self=*/true,
                             [&](const Contribution& c) {
                               return static_cast<T>(alpha *
                                                     source.flat(c.src));
                             });
  } else {
    // Atomic adds commit in scheduler order; each add is out[dst] += a*src,
    // evaluated in T precision exactly as the device would (hardware
    // atomics are plain serial adds, so the accumulator selection does not
    // apply).
    for (const std::size_t i : commit_order(contribs, out.numel(), ctx)) {
      const auto& c = contribs[i];
      out.flat(c.dst) =
          static_cast<T>(out.flat(c.dst) + alpha * source.flat(c.src));
    }
  }
  if (ctx.recorder != nullptr) {
    ctx.recorder->provenance({"tensor.index_add", "result", dim, -1,
                              fp::to_string(ctx.reduction_in_effect()),
                              tensor_bits(out),
                              static_cast<std::uint64_t>(out.numel())});
  }
  return out;
}

template <typename T>
Tensor<T> index_copy(const Tensor<T>& self, std::int64_t dim,
                     const Tensor<std::int64_t>& index,
                     const Tensor<T>& source, const core::EvalContext& ctx) {
  check_dim(dim, self.dim(), "index_copy");
  Tensor<T> out = self;
  const auto contribs =
      slice_contributions(out, dim, index, source, "index_copy");
  // Plain stores: for duplicate destinations the last committed store
  // wins, so the result depends on the order for the ND path.
  for (const std::size_t i :
       commit_order(contribs, out.numel(), ctx, /*is_store=*/true)) {
    const auto& c = contribs[i];
    out.flat(c.dst) = source.flat(c.src);
  }
  return out;
}

template <typename T>
Tensor<T> index_put(const Tensor<T>& self, const Tensor<std::int64_t>& indices,
                    const Tensor<T>& values, bool accumulate,
                    const core::EvalContext& ctx) {
  if (accumulate) {
    return index_add(self, 0, indices, values, T{1}, ctx);
  }
  return index_copy(self, 0, indices, values, ctx);
}

template <typename T>
Tensor<T> scatter(const Tensor<T>& self, std::int64_t dim,
                  const Tensor<std::int64_t>& index, const Tensor<T>& src,
                  const core::EvalContext& ctx) {
  check_dim(dim, self.dim(), "scatter");
  Tensor<T> out = self;
  const auto contribs =
      elementwise_contributions(out, dim, index, src, "scatter");
  for (const std::size_t i :
       commit_order(contribs, out.numel(), ctx, /*is_store=*/true)) {
    const auto& c = contribs[i];
    out.flat(c.dst) = src.flat(c.src);
  }
  return out;
}

template <typename T>
Tensor<T> scatter_reduce(const Tensor<T>& self, std::int64_t dim,
                         const Tensor<std::int64_t>& index,
                         const Tensor<T>& src, Reduce reduce,
                         bool include_self, const core::EvalContext& ctx) {
  check_dim(dim, self.dim(), "scatter_reduce");
  obs::Span span(ctx.recorder, "tensor.scatter_reduce");
  Tensor<T> out = self;
  const auto contribs =
      elementwise_contributions(out, dim, index, src, "scatter_reduce");
  if (ctx.recorder != nullptr) {
    span.arg("contributions", static_cast<std::uint64_t>(contribs.size()));
    span.arg("numel", static_cast<std::int64_t>(out.numel()));
    span.arg("reduce", to_string(reduce));
    span.arg("deterministic", ctx.nondeterministic() ? "no" : "yes");
    ctx.recorder->metrics()
        .counter("tensor.scatter_reduce.calls")
        .increment();
  }
  const auto emit_result = [&]() {
    if (ctx.recorder != nullptr) {
      ctx.recorder->provenance({"tensor.scatter_reduce", "result", dim, -1,
                                fp::to_string(ctx.reduction_in_effect()),
                                tensor_bits(out),
                                static_cast<std::uint64_t>(out.numel())});
    }
  };

  // Sum-family reductions on the deterministic path route through the
  // registry accumulator (non-sum modes - prod/amax/amin - have no
  // accumulation to re-associate and keep the direct combine loop). A
  // non-native dtype spec or a lane-blocked (@simd<L>) spec takes this
  // path even for the serial algorithm: the direct combine loop below
  // never quantizes and never lane-blocks, so those axes would otherwise
  // be silently dropped.
  const bool sum_family = reduce == Reduce::kSum || reduce == Reduce::kMean;
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  if (sum_family && !ctx.nondeterministic() &&
      (spec.algorithm != fp::AlgorithmId::kSerial || !spec.native() ||
       spec.lane_blocked())) {
    accumulate_deterministic(out, contribs, ctx, /*seed_self=*/include_self,
                             [&](const Contribution& c) {
                               return src.flat(c.src);
                             });
    if (reduce == Reduce::kMean) {
      std::vector<std::int64_t> counts(static_cast<std::size_t>(out.numel()),
                                       0);
      for (const auto& c : contribs) ++counts[static_cast<std::size_t>(c.dst)];
      divide_mean_destinations(out, counts, include_self);
    }
    emit_result();
    return out;
  }

  // Per-destination bookkeeping: whether it received any contribution
  // (controls include_self seeding) and, for mean, how many.
  std::vector<char> touched(static_cast<std::size_t>(out.numel()), 0);
  std::vector<std::int64_t> counts;
  if (reduce == Reduce::kMean) {
    counts.assign(static_cast<std::size_t>(out.numel()), 0);
  }

  for (const std::size_t i : commit_order(contribs, out.numel(), ctx)) {
    const auto& c = contribs[i];
    const auto d = static_cast<std::size_t>(c.dst);
    const T value = src.flat(c.src);
    if (!touched[d] && !include_self) {
      out.flat(c.dst) = value;  // first commit replaces the self value
    } else {
      out.flat(c.dst) = reduce_combine(reduce, out.flat(c.dst), value);
    }
    touched[d] = 1;
    if (reduce == Reduce::kMean) ++counts[d];
  }

  // touched[d] implies counts[d] > 0 under kMean, so the shared epilogue
  // divides exactly the touched destinations.
  if (reduce == Reduce::kMean) {
    divide_mean_destinations(out, counts, include_self);
  }
  emit_result();
  return out;
}

// Explicit instantiations for the floating-point element types the
// experiments use (float mirrors PyTorch's default dtype).
#define FPNA_INSTANTIATE_INDEXED_OPS(T)                                        \
  template Tensor<T> index_add<T>(const Tensor<T>&, std::int64_t,             \
                                  const Tensor<std::int64_t>&,                \
                                  const Tensor<T>&, T,                        \
                                  const core::EvalContext&);                  \
  template Tensor<T> index_copy<T>(const Tensor<T>&, std::int64_t,            \
                                   const Tensor<std::int64_t>&,               \
                                   const Tensor<T>&,                          \
                                   const core::EvalContext&);                 \
  template Tensor<T> index_put<T>(const Tensor<T>&,                           \
                                  const Tensor<std::int64_t>&,                \
                                  const Tensor<T>&, bool,                     \
                                  const core::EvalContext&);                  \
  template Tensor<T> scatter<T>(const Tensor<T>&, std::int64_t,               \
                                const Tensor<std::int64_t>&,                  \
                                const Tensor<T>&, const core::EvalContext&);  \
  template Tensor<T> scatter_reduce<T>(const Tensor<T>&, std::int64_t,        \
                                       const Tensor<std::int64_t>&,           \
                                       const Tensor<T>&, Reduce, bool,        \
                                       const core::EvalContext&);

FPNA_INSTANTIATE_INDEXED_OPS(float)
FPNA_INSTANTIATE_INDEXED_OPS(double)

#undef FPNA_INSTANTIATE_INDEXED_OPS

}  // namespace fpna::tensor
