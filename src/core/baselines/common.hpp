// Scaffolding shared by the baselines (§II-B, §IV-C).
//
// Every baseline ends an epoch the same way: it evaluates one model on the
// validation and test sets. The data-parallel ones, Downpour and EASGD, also
// share their workers: one model replica each, over a round-robin share of
// the shuffled training set that a wrapping cursor walks in minibatches,
// plus the option to lose one worker for good after a given epoch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "nn/optimizer.hpp"

namespace vcdl {

/// Epoch-end stats of a baseline: the validation and test accuracy of
/// `model`. A baseline has no per-result accuracies, so the subtask fields
/// mirror val_acc.
EpochStats baseline_epoch_stats(Model& model, const SyntheticData& data,
                                std::size_t epoch, SimTime end_time,
                                std::size_t results);

struct BaselineWorker {
  Model replica;
  std::unique_ptr<Optimizer> optimizer;
  std::vector<std::size_t> order;  // this worker's share of the training set
  std::size_t cursor = 0;          // next position in `order`
  std::size_t steps = 0;
  bool alive = true;

  /// train_step on the next `batch_size` examples of `order`; the batch is
  /// cut short at the end of `order`, where the cursor wraps. Leaves the
  /// gradients for the caller's update rule and counts the step.
  void step(const Dataset& train, std::size_t batch_size);
};

/// `workers` replicas of `model`, each with its own optimizer. Worker w gets
/// every workers-th example of the training set after `rng` shuffles it.
std::vector<BaselineWorker> make_baseline_workers(
    const Model& model, std::size_t train_size, std::size_t workers,
    const std::string& optimizer, double learning_rate, Rng& rng);

/// Round-robin rounds per epoch: enough for each worker to cover its share
/// once in minibatches of `batch_size`. Throws unless batch_size >= 1.
std::size_t steps_per_worker_epoch(std::size_t train_size, std::size_t workers,
                                   std::size_t batch_size);

/// The fail-worker option: worker `fail_worker` (if >= 0 and in range) is
/// gone in every epoch after `fail_after_epoch`.
void fail_worker_after(std::vector<BaselineWorker>& workers, int fail_worker,
                       std::size_t fail_after_epoch, std::size_t epoch);

}  // namespace vcdl
