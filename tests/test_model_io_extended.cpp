// Extended model (de)serialization coverage: every layer kind round-trips,
// nested residual stacks, and clone/copy independence.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/misc_layers.hpp"
#include "nn/model_io.hpp"
#include "nn/pool2d.hpp"
#include "tensor/ops.hpp"

namespace vcdl {
namespace {

// A model using every serializable layer kind, including a nested residual.
Model kitchen_sink(std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  m.emplace<Conv2D>(3, 4, 3, 1, 1, Init::he_normal, rng);
  m.emplace<ReLU>();
  {
    std::vector<std::unique_ptr<Layer>> outer;
    outer.push_back(std::make_unique<Conv2D>(4, 4, 3, 1, 1, Init::he_normal, rng));
    outer.push_back(std::make_unique<Tanh>());
    {
      std::vector<std::unique_ptr<Layer>> inner;
      inner.push_back(std::make_unique<Conv2D>(4, 4, 3, 1, 1,
                                               Init::xavier_uniform, rng));
      outer.push_back(std::make_unique<Residual>(std::move(inner)));
    }
    m.add(std::make_unique<Residual>(std::move(outer)));
  }
  m.emplace<MaxPool2D>(2);
  m.emplace<Dropout>(0.25, 99);
  m.emplace<GlobalAvgPool>();
  m.emplace<Dense>(4, 6, Init::he_uniform, rng);
  m.emplace<Sigmoid>();
  m.emplace<Flatten>();
  m.emplace<Dense>(6, 3, Init::xavier_normal, rng);
  return m;
}

TEST(ModelIoExtended, KitchenSinkArchitectureRoundTrips) {
  Model m = kitchen_sink(17);
  const Blob arch = save_architecture(m);
  Model rebuilt = load_architecture(arch, 17);
  EXPECT_EQ(rebuilt.layer_count(), m.layer_count());
  EXPECT_EQ(rebuilt.parameter_count(), m.parameter_count());
  // Same seed ⇒ byte-identical re-initialization.
  EXPECT_EQ(rebuilt.flat_params(), load_architecture(arch, 17).flat_params());
  // And a further round trip is stable.
  EXPECT_EQ(save_architecture(rebuilt), arch);
}

TEST(ModelIoExtended, WeightsTransferThroughParamBlob) {
  Model source = kitchen_sink(21);
  Model target = load_architecture(save_architecture(source), /*seed=*/999);
  EXPECT_NE(source.flat_params(), target.flat_params());
  load_params_into(target, save_params(source));
  EXPECT_EQ(source.flat_params(), target.flat_params());
  // Identical weights ⇒ identical inference.
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, rng);
  Tensor ya = source.forward(x, serial_exec_context(), false);
  Tensor yb = target.forward(x, serial_exec_context(), false);
  EXPECT_LT(ops::max_abs_diff(ya.flat(), yb.flat()), 1e-6f);
}

TEST(ModelIoExtended, DropoutHyperparamsPreserved) {
  Rng rng(1);
  Model m;
  m.emplace<Dropout>(0.4, 1234);
  Model rebuilt = load_architecture(save_architecture(m));
  const auto* d = dynamic_cast<const Dropout*>(&rebuilt.layer(0));
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->rate(), 0.4);
}

TEST(ModelIoExtended, ResidualCloneIsDeep) {
  Rng rng(2);
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Dense>(3, 3, Init::he_normal, rng));
  Residual res(std::move(inner));
  auto copy = res.clone();
  (*res.params()[0])[0] += 42.0f;
  auto* copy_res = dynamic_cast<Residual*>(copy.get());
  ASSERT_NE(copy_res, nullptr);
  EXPECT_NE((*res.params()[0])[0], (*copy_res->params()[0])[0]);
}

TEST(ModelIoExtended, ModelCopyAssignIsDeep) {
  Model a = kitchen_sink(3);
  Model b;
  b = a;
  auto flat = a.flat_params();
  flat[0] += 7.0f;
  a.set_flat_params(flat);
  EXPECT_NE(a.flat_params()[0], b.flat_params()[0]);
  // Self-assignment is safe.
  b = *&b;
  EXPECT_EQ(b.parameter_count(), a.parameter_count());
}

TEST(ModelIoExtended, TruncatedArchThrows) {
  Model m = kitchen_sink(4);
  const Blob arch = save_architecture(m);
  std::vector<std::uint8_t> cut(arch.view().begin(),
                                arch.view().end() - arch.size() / 3);
  EXPECT_THROW(load_architecture(Blob(std::move(cut))), CorruptData);
}

TEST(ModelIoExtended, ParamBlobSizeScalesWithModel) {
  Rng rng(6);
  Model small;
  small.emplace<Dense>(4, 4, Init::he_normal, rng);
  Model big;
  big.emplace<Dense>(64, 64, Init::he_normal, rng);
  EXPECT_GT(save_params(big).size(), save_params(small).size() * 10);
}

}  // namespace
}  // namespace vcdl
