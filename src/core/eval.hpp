// Model evaluation helpers over datasets.
//
// Every helper runs the model's inference-mode forward passes on the given
// ExecContext: serial_exec_context() for the bit-exact serial path, or a
// context with a worker pool (trainer eval, the assimilator).
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"

namespace vcdl {

/// Classification accuracy of `model` on the whole dataset (batched).
double evaluate_accuracy(Model& model, const Dataset& ds, ExecContext& ctx,
                         std::size_t batch_size = 64);

/// Accuracy on a fixed-size random subsample (used by parameter servers to
/// keep per-assimilation validation cheap; 0 or >= ds.size() = full set).
double evaluate_accuracy_subsample(Model& model, const Dataset& ds,
                                   std::size_t subsample, Rng& rng,
                                   ExecContext& ctx,
                                   std::size_t batch_size = 64);

}  // namespace vcdl
