#include "fpna/tensor/extra_ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpna/util/permutation.hpp"

namespace fpna::tensor {

template <typename T>
Tensor<T> index_select(const Tensor<T>& self, std::int64_t dim,
                       const Tensor<std::int64_t>& index) {
  if (dim < 0 || dim >= self.dim()) {
    throw std::out_of_range("index_select: dim out of range");
  }
  Shape out_shape = self.shape();
  out_shape[static_cast<std::size_t>(dim)] = index.numel();
  Tensor<T> out(out_shape, T{0});

  std::vector<std::int64_t> coords(static_cast<std::size_t>(out.dim()), 0);
  for (std::int64_t f = 0; f < out.numel(); ++f) {
    std::int64_t tmp = f;
    for (std::size_t d = 0; d < out.strides().size(); ++d) {
      coords[d] = tmp / out.strides()[d];
      tmp %= out.strides()[d];
    }
    const std::int64_t k = coords[static_cast<std::size_t>(dim)];
    const std::int64_t source_row = index.flat(k);
    if (source_row < 0 || source_row >= self.size(dim)) {
      throw std::out_of_range("index_select: index value out of range");
    }
    coords[static_cast<std::size_t>(dim)] = source_row;
    out.flat(f) = self.flat(self.offset(coords));
  }
  return out;
}

template <typename T>
Tensor<T> index_select_backward(const Tensor<T>& grad_out, std::int64_t dim,
                                const Tensor<std::int64_t>& index,
                                const Shape& self_shape,
                                const core::EvalContext& ctx) {
  Tensor<T> grad_self(self_shape, T{0});
  // d(self) accumulates grad_out rows at the gathered positions: exactly
  // an index_add of grad_out into a zero tensor.
  return index_add(grad_self, dim, index, grad_out, T{1}, ctx);
}

template <typename T>
Tensor<T> embedding_bag(const Tensor<T>& weight,
                        const Tensor<std::int64_t>& indices,
                        const Tensor<std::int64_t>& offsets, BagMode mode,
                        const core::EvalContext& ctx) {
  if (weight.dim() != 2) {
    throw std::invalid_argument("embedding_bag: weight must be [rows, dim]");
  }
  const std::int64_t bags = offsets.numel();
  if (bags == 0) {
    throw std::invalid_argument("embedding_bag: need at least one bag");
  }
  if (offsets.flat(0) != 0) {
    throw std::invalid_argument("embedding_bag: offsets must start at 0");
  }
  for (std::int64_t b = 1; b < bags; ++b) {
    if (offsets.flat(b) < offsets.flat(b - 1) ||
        offsets.flat(b) > indices.numel()) {
      throw std::invalid_argument("embedding_bag: offsets must be "
                                  "non-decreasing and within indices");
    }
  }

  const std::int64_t columns = weight.size(1);
  // Bag membership per lookup: bag_of[j] for indices[j].
  std::vector<std::int64_t> bag_of(static_cast<std::size_t>(indices.numel()));
  for (std::int64_t b = 0; b < bags; ++b) {
    const std::int64_t begin = offsets.flat(b);
    const std::int64_t end =
        b + 1 < bags ? offsets.flat(b + 1) : indices.numel();
    for (std::int64_t j = begin; j < end; ++j) {
      bag_of[static_cast<std::size_t>(j)] = b;
    }
  }

  // Reduce via the indexed machinery: gather the looked-up rows, then
  // index_add them into the bags (the op whose atomic path is ND).
  Tensor<T> rows(Shape{indices.numel(), columns}, T{0});
  for (std::int64_t j = 0; j < indices.numel(); ++j) {
    const std::int64_t row = indices.flat(j);
    if (row < 0 || row >= weight.size(0)) {
      throw std::out_of_range("embedding_bag: index value out of range");
    }
    for (std::int64_t c = 0; c < columns; ++c) {
      rows.flat(j * columns + c) = weight.flat(row * columns + c);
    }
  }
  const auto bag_index = Tensor<std::int64_t>::from_data(
      Shape{indices.numel()},
      std::vector<std::int64_t>(bag_of.begin(), bag_of.end()));
  Tensor<T> out(Shape{bags, columns}, T{0});
  out = index_add(out, 0, bag_index, rows, T{1}, ctx);

  if (mode == BagMode::kMean) {
    for (std::int64_t b = 0; b < bags; ++b) {
      const std::int64_t begin = offsets.flat(b);
      const std::int64_t end =
          b + 1 < bags ? offsets.flat(b + 1) : indices.numel();
      const std::int64_t count = end - begin;
      if (count == 0) continue;
      for (std::int64_t c = 0; c < columns; ++c) {
        out.flat(b * columns + c) =
            static_cast<T>(out.flat(b * columns + c) / static_cast<T>(count));
      }
    }
  }
  return out;
}

Tensor<std::int64_t> bincount(const Tensor<std::int64_t>& values,
                              std::int64_t minlength,
                              const core::EvalContext& ctx) {
  std::int64_t bins = minlength;
  for (const std::int64_t v : values.data()) {
    if (v < 0) throw std::invalid_argument("bincount: negative value");
    bins = std::max(bins, v + 1);
  }
  if (bins == 0) bins = 1;
  Tensor<std::int64_t> out(Shape{bins}, 0);

  // Integer atomic increments: commit them in a scheduler order when an
  // ND context is supplied - integer addition is associative, so the
  // result is provably identical to the in-order one.
  std::vector<std::size_t> order(static_cast<std::size_t>(values.numel()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (ctx.nondeterministic() && values.numel() > 1) {
    order = util::random_permutation(order.size(), ctx.run->rng());
  }
  for (const std::size_t i : order) {
    ++out.flat(values.flat(static_cast<std::int64_t>(i)));
  }
  return out;
}

template <typename T>
Tensor<std::int64_t> histc(const Tensor<T>& values, std::int64_t bins, T lo,
                           T hi, const core::EvalContext& ctx) {
  if (bins <= 0) throw std::invalid_argument("histc: bins must be positive");
  if (!(hi > lo)) throw std::invalid_argument("histc: hi must exceed lo");
  Tensor<std::int64_t> out(Shape{bins}, 0);

  std::vector<std::size_t> order(static_cast<std::size_t>(values.numel()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (ctx.nondeterministic() && values.numel() > 1) {
    order = util::random_permutation(order.size(), ctx.run->rng());
  }
  const T width = static_cast<T>((hi - lo) / static_cast<T>(bins));
  for (const std::size_t i : order) {
    const T v = values.flat(static_cast<std::int64_t>(i));
    if (v < lo || v > hi) continue;  // histc drops out-of-range values
    auto bin = static_cast<std::int64_t>((v - lo) / width);
    bin = std::min(bin, bins - 1);  // hi lands in the last bin
    ++out.flat(bin);
  }
  return out;
}

#define FPNA_INSTANTIATE_EXTRA_OPS(T)                                         \
  template Tensor<T> index_select<T>(const Tensor<T>&, std::int64_t,          \
                                     const Tensor<std::int64_t>&);            \
  template Tensor<T> index_select_backward<T>(                                \
      const Tensor<T>&, std::int64_t, const Tensor<std::int64_t>&,            \
      const Shape&, const core::EvalContext&);                                \
  template Tensor<T> embedding_bag<T>(                                        \
      const Tensor<T>&, const Tensor<std::int64_t>&,                          \
      const Tensor<std::int64_t>&, BagMode, const core::EvalContext&);        \
  template Tensor<std::int64_t> histc<T>(const Tensor<T>&, std::int64_t, T,   \
                                         T, const core::EvalContext&);

FPNA_INSTANTIATE_EXTRA_OPS(float)
FPNA_INSTANTIATE_EXTRA_OPS(double)

#undef FPNA_INSTANTIATE_EXTRA_OPS

}  // namespace fpna::tensor
