#include "data/timeseries.hpp"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "core/eval.hpp"
#include "core/local_sgd.hpp"
#include "data/shards.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"

namespace vcdl {
namespace {

TimeseriesSpec tiny_spec() {
  TimeseriesSpec s;
  s.regimes = 4;
  s.window = 24;
  s.train = 400;
  s.validation = 120;
  s.test = 120;
  s.noise = 0.25;
  return s;
}

TEST(Timeseries, SplitSizesAndShape) {
  const SyntheticData data = make_regime_timeseries(tiny_spec());
  EXPECT_EQ(data.train.size(), 400u);
  EXPECT_EQ(data.validation.size(), 120u);
  EXPECT_EQ(data.test.size(), 120u);
  EXPECT_EQ(data.train.channels(), 1u);
  EXPECT_EQ(data.train.height(), 1u);
  EXPECT_EQ(data.train.width(), 24u);
  EXPECT_EQ(data.train.classes(), 4u);
}

TEST(Timeseries, DeterministicInSeed) {
  const SyntheticData a = make_regime_timeseries(tiny_spec());
  const SyntheticData b = make_regime_timeseries(tiny_spec());
  EXPECT_EQ(a.train.encode(), b.train.encode());
  TimeseriesSpec other = tiny_spec();
  other.seed = 77;
  const SyntheticData c = make_regime_timeseries(other);
  EXPECT_FALSE(a.train.encode() == c.train.encode());
}

TEST(Timeseries, RegimesAreBalanced) {
  const SyntheticData data = make_regime_timeseries(tiny_spec());
  const auto hist = label_histogram(data.train);
  ASSERT_EQ(hist.size(), 4u);
  for (const auto n : hist) EXPECT_EQ(n, 100u);
}

TEST(Timeseries, WindowsUseFullQuantizationRange) {
  const SyntheticData data = make_regime_timeseries(tiny_spec());
  // Per-window min-max scaling: every window must hit (close to) 0 and 255.
  const auto img = data.train.image(0);
  const auto lo = *std::min_element(img.begin(), img.end());
  const auto hi = *std::max_element(img.begin(), img.end());
  EXPECT_LE(lo, 2);
  EXPECT_GE(hi, 253);
}

TEST(Timeseries, RejectsBadSpec) {
  TimeseriesSpec s = tiny_spec();
  s.regimes = 1;
  EXPECT_THROW(make_regime_timeseries(s), Error);
  s = tiny_spec();
  s.window = 4;
  EXPECT_THROW(make_regime_timeseries(s), Error);
}

TEST(Timeseries, MlpLearnsRegimes) {
  // The regimes must be learnable: a small MLP trained briefly clears chance
  // (25%) by a wide margin.
  const SyntheticData data = make_regime_timeseries(tiny_spec());
  Model model = make_mlp(MlpSpec{.inputs = 24, .hidden = {48}, .classes = 4}, 5);
  auto optimizer = make_optimizer("adam", 3e-3);
  Rng rng(9);
  std::vector<std::size_t> order(data.train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  train_local(model, *optimizer, data.train, order, rng, /*passes=*/6,
              /*batch_size=*/20, serial_exec_context());
  EXPECT_GT(
      evaluate_accuracy(model, data.validation, serial_exec_context()), 0.45);
}

TEST(Timeseries, ShardsPipelineWorks) {
  const SyntheticData data = make_regime_timeseries(tiny_spec());
  const ShardSet shards = make_shards(data.train, 10, ShardPolicy::iid, 3);
  EXPECT_EQ(shards.count(), 10u);
  EXPECT_EQ(shards.total_samples(), data.train.size());
  // Shard blobs round-trip through the wire codec path.
  const Blob blob = shards.shards[0].encode();
  const Dataset decoded = Dataset::decode(blob);
  EXPECT_EQ(decoded.size(), shards.shards[0].size());
  EXPECT_EQ(decoded.width(), 24u);
}

}  // namespace
}  // namespace vcdl
