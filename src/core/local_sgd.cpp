#include "core/local_sgd.hpp"

#include <algorithm>
#include <vector>

#include "nn/loss.hpp"

namespace vcdl {

Tensor train_step(Model& model, const Tensor& x,
                  std::span<const std::uint16_t> labels, ExecContext& ctx) {
  const Tensor logits = model.forward(x, ctx, /*training=*/true);
  const auto loss = softmax_cross_entropy(logits, labels);
  model.zero_grads();
  model.backward(loss.grad, ctx);
  return logits;
}

Tensor train_step(Model& model, const Dataset& data,
                  std::span<const std::size_t> indices, ExecContext& ctx) {
  const Tensor x = data.gather_tensor(indices);
  std::vector<std::uint16_t> labels(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    labels[i] = data.label(indices[i]);
  }
  return train_step(model, x, labels, ctx);
}

void train_local(Model& model, Optimizer& optimizer, const Dataset& data,
                 std::span<std::size_t> order, Rng& rng, std::size_t passes,
                 std::size_t batch_size, ExecContext& ctx) {
  VCDL_CHECK(batch_size >= 1, "train_local: batch_size >= 1");
  for (std::size_t pass = 0; pass < passes; ++pass) {
    rng.shuffle(order.begin(), order.end());
    for (std::size_t first = 0; first < order.size(); first += batch_size) {
      const std::size_t count = std::min(batch_size, order.size() - first);
      train_step(model, data, order.subspan(first, count), ctx);
      optimizer.step(model);
    }
  }
}

}  // namespace vcdl
