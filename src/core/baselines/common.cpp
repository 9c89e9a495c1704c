#include "core/baselines/common.hpp"

#include <algorithm>
#include <numeric>

#include "core/eval.hpp"
#include "core/local_sgd.hpp"

namespace vcdl {

EpochStats baseline_epoch_stats(Model& model, const SyntheticData& data,
                                std::size_t epoch, SimTime end_time,
                                std::size_t results) {
  EpochStats es;
  es.epoch = epoch;
  es.end_time = end_time;
  es.val_acc = evaluate_accuracy(model, data.validation, serial_exec_context());
  es.test_acc = evaluate_accuracy(model, data.test, serial_exec_context());
  es.mean_subtask_acc = es.val_acc;
  es.min_subtask_acc = es.val_acc;
  es.max_subtask_acc = es.val_acc;
  es.results = results;
  return es;
}

void BaselineWorker::step(const Dataset& train, std::size_t batch_size) {
  const std::size_t count = std::min(batch_size, order.size() - cursor);
  std::span<const std::size_t> idx(order.data() + cursor, count);
  cursor = (cursor + count) % order.size();
  train_step(replica, train, idx, serial_exec_context());
  ++steps;
}

std::vector<BaselineWorker> make_baseline_workers(
    const Model& model, std::size_t train_size, std::size_t workers,
    const std::string& optimizer, double learning_rate, Rng& rng) {
  std::vector<std::size_t> all(train_size);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng.shuffle(all.begin(), all.end());
  std::vector<BaselineWorker> result;
  result.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    BaselineWorker wk{model, make_optimizer(optimizer, learning_rate), {}, 0,
                      0, true};
    for (std::size_t i = w; i < all.size(); i += workers) {
      wk.order.push_back(all[i]);
    }
    result.push_back(std::move(wk));
  }
  return result;
}

std::size_t steps_per_worker_epoch(std::size_t train_size, std::size_t workers,
                                   std::size_t batch_size) {
  VCDL_CHECK(batch_size >= 1, "baseline: batch_size >= 1");
  return (train_size / workers + batch_size - 1) / batch_size;
}

void fail_worker_after(std::vector<BaselineWorker>& workers, int fail_worker,
                       std::size_t fail_after_epoch, std::size_t epoch) {
  if (fail_worker >= 0 && epoch > fail_after_epoch &&
      static_cast<std::size_t>(fail_worker) < workers.size()) {
    workers[static_cast<std::size_t>(fail_worker)].alive = false;
  }
}

}  // namespace vcdl
