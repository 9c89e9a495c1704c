#include "core/baselines/downpour.hpp"

#include <algorithm>

#include "core/baselines/common.hpp"

namespace vcdl {
namespace {

// Appends the replica's current gradients into the push buffer.
void accumulate_grads(Model& m, std::vector<float>& buffer) {
  std::size_t pos = 0;
  for (Tensor* g : m.grads()) {
    for (const float v : g->flat()) buffer[pos++] += v;
  }
}

}  // namespace

DownpourResult run_downpour_baseline(const DownpourSpec& spec) {
  VCDL_CHECK(spec.workers >= 1, "downpour: need >= 1 worker");
  VCDL_CHECK(spec.n_push >= 1 && spec.n_fetch >= 1, "downpour: n_push/n_fetch >= 1");
  SyntheticSpec data_spec = spec.data;
  data_spec.seed = mix64(spec.seed, 0xDA7A);
  const SyntheticData data = make_synthetic_cifar(data_spec);

  Model server_model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  const std::size_t dim = server_model.parameter_count();
  // Server-side adaptive update rule applied to pushed gradients (DistBelief
  // used Adagrad; we use Adam). A plain SGD server stalls: replicas re-fetch
  // an almost static parameter copy every n_fetch steps.
  auto server_optimizer = make_optimizer(spec.optimizer, spec.learning_rate);

  Rng rng(mix64(spec.seed, 0xD00D));
  std::vector<BaselineWorker> workers =
      make_baseline_workers(server_model, data.train.size(), spec.workers,
                            spec.optimizer, spec.learning_rate, rng);
  // Per-worker push buffers (gradients accumulated since the last push) and
  // fractional step credits earned per round.
  std::vector<std::vector<float>> push_buffers(spec.workers,
                                               std::vector<float>(dim, 0.0f));
  std::vector<double> credits(spec.workers, 0.0);

  DownpourResult result;
  const std::size_t steps_per_epoch =
      steps_per_worker_epoch(data.train.size(), spec.workers, spec.batch_size);

  auto worker_step = [&](BaselineWorker& wk, std::vector<float>& push_buffer) {
    wk.step(data.train, spec.batch_size);
    accumulate_grads(wk.replica, push_buffer);
    wk.optimizer->step(wk.replica);  // local progress between fetches
    if (wk.steps % spec.n_push == 0) {
      // Server applies the accumulated gradient with its optimizer.
      std::size_t pos = 0;
      for (Tensor* g : server_model.grads()) {
        for (auto& v : g->flat()) v = push_buffer[pos++];
      }
      server_optimizer->step(server_model);
      std::fill(push_buffer.begin(), push_buffer.end(), 0.0f);
      ++result.pushes;
    }
    if (wk.steps % spec.n_fetch == 0) {
      wk.replica.set_flat_params(server_model.flat_params());
      ++result.fetches;
    }
  };

  for (std::size_t epoch = 1; epoch <= spec.max_epochs; ++epoch) {
    fail_worker_after(workers, spec.fail_worker, spec.fail_after_epoch, epoch);
    // Round-robin with speed skew: a worker earns `speed` step credits per
    // round and executes the whole ones, so slow workers push staler grads.
    for (std::size_t round = 0; round < steps_per_epoch; ++round) {
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (!workers[w].alive) continue;
        credits[w] +=
            w < spec.worker_speeds.size() ? spec.worker_speeds[w] : 1.0;
        while (credits[w] >= 1.0) {
          credits[w] -= 1.0;
          worker_step(workers[w], push_buffers[w]);
        }
      }
    }
    // Epoch index as nominal time.
    result.epochs.push_back(baseline_epoch_stats(
        server_model, data, epoch, static_cast<double>(epoch), spec.workers));
  }
  return result;
}

}  // namespace vcdl
