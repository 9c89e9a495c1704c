#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines/downpour.hpp"
#include "core/baselines/easgd.hpp"
#include "core/baselines/serial.hpp"

namespace vcdl {
namespace {

SyntheticSpec tiny_data() {
  SyntheticSpec s;
  s.height = 8;
  s.width = 8;
  s.train = 400;
  s.validation = 80;
  s.test = 80;
  s.difficulty = 0.2;
  return s;
}

ResNetLiteSpec tiny_model() {
  return ResNetLiteSpec{.height = 8, .width = 8, .base_filters = 4, .blocks = 1};
}

TEST(SerialBaseline, LearnsAndTracksTime) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 8;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  const SerialResult result = run_serial_baseline(spec);
  ASSERT_EQ(result.epochs.size(), 8u);
  // Virtual time advances by a constant epoch duration.
  const double e1 = result.epochs[0].end_time;
  EXPECT_NEAR(result.epochs[1].end_time, 2 * e1, 1e-6);
  EXPECT_DOUBLE_EQ(result.duration_s, result.epochs.back().end_time);
  // Real learning: accuracy well above chance by the last epoch.
  EXPECT_GT(result.epochs.back().val_acc, 0.35);
  EXPECT_GT(result.epochs.back().val_acc, result.epochs.front().val_acc);
  EXPECT_NEAR(result.duration_s, 8 * result.epochs[0].end_time, 1e-6);
  EXPECT_GT(result.parameter_count, 0u);
}

TEST(SerialBaseline, DeterministicInSeed) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 2;
  const SerialResult a = run_serial_baseline(spec);
  const SerialResult b = run_serial_baseline(spec);
  EXPECT_DOUBLE_EQ(a.epochs.back().val_acc, b.epochs.back().val_acc);
}

TEST(SerialBaseline, RejectsZeroBatchSize) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.batch_size = 0;
  EXPECT_THROW(run_serial_baseline(spec), Error);
}

TEST(DownpourBaseline, LearnsOnSmallProblem) {
  DownpourSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 8;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  const DownpourResult result = run_downpour_baseline(spec);
  ASSERT_EQ(result.epochs.size(), 8u);
  EXPECT_GT(result.pushes, 0u);
  EXPECT_GT(result.fetches, 0u);
  double best = 0.0;
  for (const auto& e : result.epochs) best = std::max(best, e.val_acc);
  EXPECT_GT(best, 0.22);
  EXPECT_GE(result.epochs.back().val_acc, 0.15);
}

TEST(DownpourBaseline, SlowWorkerStillContributes) {
  DownpourSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 2;
  spec.max_epochs = 2;
  spec.worker_speeds = {1.0, 0.25};  // heterogeneity -> stale pushes
  const DownpourResult result = run_downpour_baseline(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
}

TEST(DownpourBaseline, FailedWorkerDataIsLost) {
  // §III-C: "Using Downpour SGD as-is can lead to consistent loss of updates
  // from a ... disconnected client". The failed worker's pushes stop; the
  // run still finishes but that share of the data never trains again.
  DownpourSpec healthy;
  healthy.data = tiny_data();
  healthy.model = tiny_model();
  healthy.workers = 4;
  healthy.max_epochs = 3;
  DownpourSpec faulty = healthy;
  faulty.fail_worker = 0;
  faulty.fail_after_epoch = 1;
  const DownpourResult a = run_downpour_baseline(healthy);
  const DownpourResult b = run_downpour_baseline(faulty);
  EXPECT_GT(a.pushes, b.pushes);
}

TEST(EasgdBaseline, LearnsOnSmallProblem) {
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 8;
  spec.batch_size = 10;
  spec.tau = 2;
  spec.learning_rate = 3e-3;
  spec.moving_rate = 0.3;
  const EasgdResult result = run_easgd_baseline(spec);
  ASSERT_EQ(result.epochs.size(), 8u);
  EXPECT_GT(result.exchanges, 0u);
  double best = 0.0;
  for (const auto& e : result.epochs) best = std::max(best, e.val_acc);
  EXPECT_GT(best, 0.18);
  EXPECT_GT(result.epochs.back().val_acc, result.epochs.front().val_acc);
}

TEST(EasgdBaseline, TinyMovingRateFreezesCenter) {
  // §IV-C treats VC-ASGD α = 0.999 as the analogue of EASGD moving rate
  // 0.001: the center variable barely moves and accuracy stays near chance.
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 2;
  spec.moving_rate = 0.001;
  const EasgdResult result = run_easgd_baseline(spec);
  EXPECT_LT(result.epochs.back().val_acc, 0.25);
}

TEST(Baselines, DataParallelRejectZeroBatchSize) {
  DownpourSpec downpour;
  downpour.data = tiny_data();
  downpour.model = tiny_model();
  downpour.batch_size = 0;
  EXPECT_THROW(run_downpour_baseline(downpour), Error);
  EasgdSpec easgd;
  easgd.data = tiny_data();
  easgd.model = tiny_model();
  easgd.batch_size = 0;
  EXPECT_THROW(run_easgd_baseline(easgd), Error);
}

TEST(EasgdBaseline, RejectsBadMovingRate) {
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.moving_rate = 0.0;
  EXPECT_THROW(run_easgd_baseline(spec), Error);
  spec.moving_rate = 1.0;
  EXPECT_THROW(run_easgd_baseline(spec), Error);
}

// Bit-exact goldens for every baseline on the tiny spec. Each run is
// deterministic in its seed, so any change to a baseline's RNG-to-batch
// mapping, step order or update rule moves these values.
struct GoldenRun {
  std::vector<EpochStats> epochs;
  std::vector<double> counters;  // per-baseline counters, in declared order
};

struct BaselineGolden {
  const char* name;
  GoldenRun (*run)();
  std::vector<double> val_acc;
  std::vector<double> test_acc;
  std::vector<double> counters;
};

GoldenRun serial_golden_run() {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 3;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  SerialResult r = run_serial_baseline(spec);
  return {std::move(r.epochs), {r.duration_s}};
}

GoldenRun downpour_golden_run() {
  DownpourSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 3;
  spec.batch_size = 10;
  spec.n_push = 3;
  spec.n_fetch = 2;
  spec.learning_rate = 3e-3;
  spec.worker_speeds = {1.0, 0.5, 1.0};
  spec.fail_worker = 2;
  spec.fail_after_epoch = 2;
  DownpourResult r = run_downpour_baseline(spec);
  return {std::move(r.epochs), {static_cast<double>(r.pushes),
                                static_cast<double>(r.fetches)}};
}

GoldenRun easgd_golden_run() {
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 3;
  spec.batch_size = 10;
  spec.tau = 2;
  spec.learning_rate = 3e-3;
  spec.moving_rate = 0.3;
  spec.fail_worker = 1;
  spec.fail_after_epoch = 1;
  EasgdResult r = run_easgd_baseline(spec);
  return {std::move(r.epochs), {static_cast<double>(r.exchanges)}};
}

void PrintTo(const BaselineGolden& golden, std::ostream* os) {
  *os << golden.name;
}

class BaselineGoldens : public ::testing::TestWithParam<BaselineGolden> {};

TEST_P(BaselineGoldens, BitExact) {
  const BaselineGolden& golden = GetParam();
  const GoldenRun run = golden.run();
  std::vector<double> val_acc;
  std::vector<double> test_acc;
  for (const EpochStats& e : run.epochs) {
    val_acc.push_back(e.val_acc);
    test_acc.push_back(e.test_acc);
  }
  std::ostringstream actual;
  actual.precision(17);
  actual << "val_acc:";
  for (const double v : val_acc) actual << ' ' << v;
  actual << "\ntest_acc:";
  for (const double v : test_acc) actual << ' ' << v;
  actual << "\ncounters:";
  for (const double v : run.counters) actual << ' ' << v;
  SCOPED_TRACE(actual.str());
  EXPECT_EQ(val_acc, golden.val_acc);
  EXPECT_EQ(test_acc, golden.test_acc);
  EXPECT_EQ(run.counters, golden.counters);
}

INSTANTIATE_TEST_SUITE_P(
    TinySpec, BaselineGoldens,
    ::testing::Values(
        BaselineGolden{"serial",
                       serial_golden_run,
                       {0.1625, 0.25, 0.325},
                       {0.15, 0.2125, 0.275},
                       {1956.521739130435}},  // duration_s
        BaselineGolden{"downpour",
                       downpour_golden_run,
                       {0.1625, 0.175, 0.175},
                       {0.0625, 0.1125, 0.1625},
                       {30, 45}},  // pushes, fetches
        BaselineGolden{"easgd",
                       easgd_golden_run,
                       {0.1125, 0.1125, 0.1625},
                       {0.0875, 0.15, 0.15},
                       {49}}),  // exchanges
    [](const ::testing::TestParamInfo<BaselineGolden>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Baselines, ValidationTracksTest) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 4;
  const SerialResult result = run_serial_baseline(spec);
  // Same-distribution splits: validation and test accuracies move together.
  const auto& last = result.epochs.back();
  EXPECT_NEAR(last.val_acc, last.test_acc, 0.15);
}

}  // namespace
}  // namespace vcdl
