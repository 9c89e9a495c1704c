#include <gtest/gtest.h>

#include "core/alpha_schedule.hpp"
#include "core/eval.hpp"
#include "core/vcasgd.hpp"
#include "core/work_generator.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"

namespace vcdl {
namespace {

// --- Alpha schedules ---------------------------------------------------------

TEST(AlphaSchedule, ConstantHoldsValue) {
  ConstantAlpha a(0.95);
  EXPECT_DOUBLE_EQ(a.alpha(1), 0.95);
  EXPECT_DOUBLE_EQ(a.alpha(40), 0.95);
}

TEST(AlphaSchedule, ConstantRejectsOutOfRange) {
  EXPECT_THROW(ConstantAlpha(1.0), Error);
  EXPECT_THROW(ConstantAlpha(-0.1), Error);
}

TEST(AlphaSchedule, VarMatchesPaperFormula) {
  // §IV-C: α_e = e/(e+1) grows from 0.5 (e=1) to ~0.98 (e=40).
  VarAlpha var;
  EXPECT_DOUBLE_EQ(var.alpha(1), 0.5);
  EXPECT_DOUBLE_EQ(var.alpha(3), 0.75);
  EXPECT_NEAR(var.alpha(40), 40.0 / 41.0, 1e-12);
  EXPECT_NEAR(var.alpha(40), 0.9756, 1e-4);
}

TEST(AlphaSchedule, VarIsMonotone) {
  VarAlpha var;
  for (std::size_t e = 1; e < 50; ++e) {
    EXPECT_LT(var.alpha(e), var.alpha(e + 1));
  }
}

TEST(AlphaSchedule, TableClampsPastEnd) {
  TableAlpha t({0.5, 0.7, 0.9});
  EXPECT_DOUBLE_EQ(t.alpha(1), 0.5);
  EXPECT_DOUBLE_EQ(t.alpha(3), 0.9);
  EXPECT_DOUBLE_EQ(t.alpha(10), 0.9);
}

TEST(AlphaSchedule, FactoryParsesConstantsAndVar) {
  EXPECT_DOUBLE_EQ(make_alpha_schedule("0.7")->alpha(5), 0.7);
  EXPECT_DOUBLE_EQ(make_alpha_schedule("var")->alpha(1), 0.5);
  EXPECT_THROW(make_alpha_schedule("fast"), Error);
  EXPECT_THROW(make_alpha_schedule("1.5"), Error);
}

// --- VC-ASGD update (Eq. 1 / Eq. 2) -------------------------------------------

TEST(VcAsgd, UpdateIsConvexBlend) {
  std::vector<float> server = {1.0f, 2.0f};
  const std::vector<float> client = {3.0f, 6.0f};
  vcasgd_update(server, client, 0.5);
  EXPECT_FLOAT_EQ(server[0], 2.0f);
  EXPECT_FLOAT_EQ(server[1], 4.0f);
}

TEST(VcAsgd, AlphaOneIgnoresClient) {
  std::vector<float> server = {1.0f};
  vcasgd_update(server, std::vector<float>{100.0f}, 1.0);
  EXPECT_FLOAT_EQ(server[0], 1.0f);
}

TEST(VcAsgd, AlphaZeroAdoptsClient) {
  std::vector<float> server = {1.0f};
  vcasgd_update(server, std::vector<float>{100.0f}, 0.0);
  EXPECT_FLOAT_EQ(server[0], 100.0f);
}

TEST(VcAsgd, SizeMismatchThrows) {
  std::vector<float> server = {1.0f};
  EXPECT_THROW(vcasgd_update(server, std::vector<float>{1.0f, 2.0f}, 0.5),
               Error);
}

// Property sweep: the iterated Eq. (1) must equal the closed-form Eq. (2)
// expansion for every (alpha, n).
class VcAsgdSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(VcAsgdSweep, IteratedMatchesClosedForm) {
  const auto [alpha, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(alpha * 1000) + n);
  const std::size_t dim = 17;
  std::vector<float> server(dim);
  for (auto& v : server) v = static_cast<float>(rng.normal());
  const std::vector<float> server_prev = server;

  std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
  for (auto& u : updates) {
    for (auto& v : u) v = static_cast<float>(rng.normal());
  }
  for (const auto& u : updates) vcasgd_update(server, u, alpha);
  const auto closed = vcasgd_closed_form(server_prev, updates, alpha);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(server[i], closed[i], 1e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaAndCount, VcAsgdSweep,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.7, 0.95, 0.999),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{50})));

TEST(VcAsgd, ClosedFormGeometricWeights) {
  // One-dimensional sanity check of the α^{n−j} weighting.
  const std::vector<float> prev = {0.0f};
  const std::vector<std::vector<float>> updates = {{1.0f}, {1.0f}};
  const auto out = vcasgd_closed_form(prev, updates, 0.5);
  // 0.5^2·0 + 0.5·(0.5·1) + 0.5·1 = 0.75
  EXPECT_NEAR(out[0], 0.75f, 1e-6f);
}

// --- Evaluation helpers --------------------------------------------------------

TEST(Eval, AccuracyBoundsAndDeterminism) {
  SyntheticSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.train = 50;
  spec.validation = 40;
  spec.test = 40;
  const SyntheticData data = make_synthetic_cifar(spec);
  Model m = make_resnet_lite({.height = 8, .width = 8, .base_filters = 4,
                              .blocks = 1},
                             1);
  ExecContext& ctx = serial_exec_context();
  const double acc = evaluate_accuracy(m, data.validation, ctx);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_DOUBLE_EQ(acc, evaluate_accuracy(m, data.validation, ctx));
}

TEST(Eval, SubsampleMatchesFullWhenLarge) {
  SyntheticSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.train = 50;
  spec.validation = 30;
  spec.test = 30;
  const SyntheticData data = make_synthetic_cifar(spec);
  Model m = make_resnet_lite({.height = 8, .width = 8, .base_filters = 4,
                              .blocks = 1},
                             2);
  Rng rng(3);
  ExecContext& ctx = serial_exec_context();
  const double full = evaluate_accuracy(m, data.validation, ctx);
  EXPECT_DOUBLE_EQ(
      evaluate_accuracy_subsample(m, data.validation, 0, rng, ctx), full);
  EXPECT_DOUBLE_EQ(
      evaluate_accuracy_subsample(m, data.validation, 1000, rng, ctx), full);
}

TEST(Eval, SubsampleIsUnbiasedish) {
  SyntheticSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.train = 50;
  spec.validation = 200;
  spec.test = 30;
  spec.difficulty = 0.2;
  const SyntheticData data = make_synthetic_cifar(spec);
  Model m = make_resnet_lite({.height = 8, .width = 8, .base_filters = 4,
                              .blocks = 1},
                             4);
  ExecContext& ctx = serial_exec_context();
  const double full = evaluate_accuracy(m, data.validation, ctx);
  Rng rng(5);
  double sum = 0.0;
  const int reps = 30;
  for (int i = 0; i < reps; ++i) {
    sum += evaluate_accuracy_subsample(m, data.validation, 50, rng, ctx);
  }
  EXPECT_NEAR(sum / reps, full, 0.06);
}

// --- WorkGenerator -------------------------------------------------------------

TEST(WorkGenerator, PublishesAndGeneratesInOrder) {
  SimEngine engine;
  TraceLog trace;
  Scheduler scheduler;
  FileServer files;
  WorkGenerator::Options opts;
  opts.num_shards = 4;
  WorkGenerator gen(scheduler, files, trace, engine, opts);

  std::vector<Blob> shards;
  for (int i = 0; i < 4; ++i) {
    shards.push_back(Blob(std::vector<std::uint8_t>(64, 1)));
  }
  gen.publish_static(Blob(std::vector<std::uint8_t>(16, 2)), std::move(shards));
  EXPECT_TRUE(files.has("arch"));
  EXPECT_TRUE(files.has("shard/3"));

  // Params must exist before any epoch.
  EXPECT_THROW(gen.generate_epoch(1), Error);
  files.publish("params", Blob(std::vector<std::uint8_t>(32, 3)), true);
  gen.generate_epoch(1);
  EXPECT_EQ(scheduler.ready_count(), 4u);
  EXPECT_EQ(gen.epochs_generated(), 1u);
  // Epochs must be sequential.
  EXPECT_THROW(gen.generate_epoch(3), Error);
  gen.generate_epoch(2);
  EXPECT_EQ(scheduler.ready_count(), 8u);
}

TEST(WorkGenerator, ShardBlobCountMustMatch) {
  SimEngine engine;
  TraceLog trace;
  Scheduler scheduler;
  FileServer files;
  WorkGenerator::Options opts;
  opts.num_shards = 3;
  WorkGenerator gen(scheduler, files, trace, engine, opts);
  std::vector<Blob> two(2, Blob(std::vector<std::uint8_t>(8, 1)));
  EXPECT_THROW(gen.publish_static(Blob(), std::move(two)), Error);
}

TEST(WorkGenerator, UnitInputsReferencePublishedFiles) {
  SimEngine engine;
  TraceLog trace;
  Scheduler scheduler;
  scheduler.register_client(0);
  FileServer files;
  WorkGenerator::Options opts;
  opts.num_shards = 2;
  opts.subtask_timeout_s = 123.0;
  WorkGenerator gen(scheduler, files, trace, engine, opts);
  std::vector<Blob> shards(2, Blob(std::vector<std::uint8_t>(8, 1)));
  gen.publish_static(Blob(std::vector<std::uint8_t>(8, 2)), std::move(shards));
  files.publish("params", Blob(std::vector<std::uint8_t>(8, 3)), true);
  gen.generate_epoch(1);
  const auto units = scheduler.request_work(0, 2, 0.0);
  ASSERT_EQ(units.size(), 2u);
  for (const auto& wu : units) {
    EXPECT_EQ(wu.epoch, 1u);
    EXPECT_DOUBLE_EQ(wu.deadline_s, 123.0);
    ASSERT_EQ(wu.inputs.size(), 3u);
    for (const auto& ref : wu.inputs) {
      EXPECT_TRUE(files.has(ref.name)) << ref.name;
    }
    // Parameter file must not be sticky (it changes constantly).
    EXPECT_FALSE(wu.inputs[1].sticky);
    EXPECT_TRUE(wu.inputs[0].sticky);   // architecture
    EXPECT_TRUE(wu.inputs[2].sticky);   // shard
  }
}

}  // namespace
}  // namespace vcdl
