#include "core/baselines/easgd.hpp"

#include "core/baselines/common.hpp"

namespace vcdl {

EasgdResult run_easgd_baseline(const EasgdSpec& spec) {
  VCDL_CHECK(spec.workers >= 1, "easgd: need >= 1 worker");
  VCDL_CHECK(spec.tau >= 1, "easgd: tau >= 1");
  VCDL_CHECK(spec.moving_rate > 0.0 && spec.moving_rate < 1.0,
             "easgd: moving rate in (0, 1)");
  SyntheticSpec data_spec = spec.data;
  data_spec.seed = mix64(spec.seed, 0xDA7A);
  const SyntheticData data = make_synthetic_cifar(data_spec);

  Model center_model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  std::vector<float> center = center_model.flat_params();  // x̃
  const std::size_t dim = center.size();

  Rng rng(mix64(spec.seed, 0xEA5D));
  std::vector<BaselineWorker> workers =
      make_baseline_workers(center_model, data.train.size(), spec.workers,
                            spec.optimizer, spec.learning_rate, rng);

  EasgdResult result;
  const std::size_t steps_per_epoch =
      steps_per_worker_epoch(data.train.size(), spec.workers, spec.batch_size);
  const auto beta = static_cast<float>(spec.moving_rate);

  for (std::size_t epoch = 1; epoch <= spec.max_epochs; ++epoch) {
    fail_worker_after(workers, spec.fail_worker, spec.fail_after_epoch, epoch);
    for (std::size_t round = 0; round < steps_per_epoch; ++round) {
      for (auto& wk : workers) {
        if (!wk.alive) continue;
        wk.step(data.train, spec.batch_size);
        wk.optimizer->step(wk.replica);
        if (wk.steps % spec.tau == 0) {
          // Elastic exchange with the center variable.
          std::vector<float> x_i = wk.replica.flat_params();
          for (std::size_t i = 0; i < dim; ++i) {
            const float diff = x_i[i] - center[i];
            x_i[i] -= beta * diff;
            center[i] += beta * diff;
          }
          wk.replica.set_flat_params(x_i);
          ++result.exchanges;
        }
      }
    }
    center_model.set_flat_params(center);
    result.epochs.push_back(baseline_epoch_stats(
        center_model, data, epoch, static_cast<double>(epoch), spec.workers));
  }
  return result;
}

}  // namespace vcdl
