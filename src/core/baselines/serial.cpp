#include "core/baselines/serial.hpp"

#include <algorithm>
#include <numeric>

#include "core/baselines/common.hpp"
#include "core/local_sgd.hpp"

namespace vcdl {

SerialResult run_serial_baseline(const SerialSpec& spec) {
  VCDL_CHECK(spec.max_epochs >= 1, "run_serial_baseline: max_epochs >= 1");
  SyntheticSpec data_spec = spec.data;
  data_spec.seed = mix64(spec.seed, 0xDA7A);  // same data as the VC trainer
  const SyntheticData data = make_synthetic_cifar(data_spec);

  Model model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  auto optimizer = make_optimizer(spec.optimizer, spec.learning_rate);
  Rng rng(mix64(spec.seed, 0x5E21A1));

  const InstanceType server = table1_catalog().server;
  const double threads = std::min<double>(
      static_cast<double>(spec.training_threads),
      static_cast<double>(server.vcpus));
  const SimTime epoch_time = spec.work_per_epoch / (server.clock_ghz * threads);

  SerialResult result;
  result.parameter_count = model.parameter_count();
  std::vector<std::size_t> order(data.train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  SimTime now = 0.0;
  for (std::size_t epoch = 1; epoch <= spec.max_epochs; ++epoch) {
    train_local(model, *optimizer, data.train, order, rng, /*passes=*/1,
                spec.batch_size, serial_exec_context());
    now += epoch_time;
    result.epochs.push_back(
        baseline_epoch_stats(model, data, epoch, now, /*results=*/1));
  }
  result.duration_s = now;
  return result;
}

}  // namespace vcdl
