// Local SGD: the one minibatch step every training loop in the library runs.
//
// A VC-ASGD client's subtask is plain local SGD on one data shard (§III);
// the serial, Downpour and EASGD baselines (§II-B, §IV-C) differ from it
// only in what they do once the gradient is computed. train_step is that
// shared gradient computation; train_local is the shuffled-pass loop that
// the trainer's subtasks and the serial baseline run on top of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace vcdl {

/// One minibatch step on `model`: training-mode forward, softmax
/// cross-entropy, zero grads, backward. Returns the logits and leaves the
/// gradients populated; the caller applies its own update rule.
Tensor train_step(Model& model, const Tensor& x,
                  std::span<const std::uint16_t> labels, ExecContext& ctx);

/// train_step on the examples `indices` of `data`.
Tensor train_step(Model& model, const Dataset& data,
                  std::span<const std::size_t> indices, ExecContext& ctx);

/// `passes` passes over the examples in `order`, in minibatches of
/// `batch_size` (the last one may be short), each followed by one optimizer
/// step. Every pass first shuffles `order` with `rng`. The caller owns both,
/// so it decides whether a pass continues the previous permutation or starts
/// from a fresh one. Throws unless batch_size >= 1.
void train_local(Model& model, Optimizer& optimizer, const Dataset& data,
                 std::span<std::size_t> order, Rng& rng, std::size_t passes,
                 std::size_t batch_size, ExecContext& ctx);

}  // namespace vcdl
