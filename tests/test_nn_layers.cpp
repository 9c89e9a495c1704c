// Per-layer behaviours plus spot gradient checks through the shared
// finite-difference checker (testing/gradcheck.hpp). The exhaustive
// every-registered-kind gradient grid lives in tests/test_properties.cpp;
// the spot checks here keep odd configurations (strided conv, deeper
// residual) covered in tier 1.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pool2d.hpp"
#include "tensor/ops.hpp"
#include "testing/gradcheck.hpp"

namespace vcdl {
namespace {

// Every layer under test runs on the bit-exact serial path.
ExecContext& serial_ctx = serial_exec_context();

void check_gradients(Layer& layer, const Tensor& x) {
  Rng rng(1234);
  const testing::GradCheckResult res =
      testing::check_layer_gradients(layer, x, rng);
  EXPECT_GT(res.checked, 0u);
  EXPECT_TRUE(res.passed) << res.detail;
}

TEST(Dense, GradientCheck) {
  Rng rng(1);
  Dense layer(6, 4, Init::he_normal, rng);
  check_gradients(layer, Tensor::randn(Shape{3, 6}, rng));
}

TEST(Dense, ForwardMatchesManual) {
  Rng rng(2);
  Dense layer(2, 2, Init::zeros, rng);
  layer.params()[0]->at(0, 0) = 1.0f;  // W = [[1, 2], [3, 4]]
  layer.params()[0]->at(0, 1) = 2.0f;
  layer.params()[0]->at(1, 0) = 3.0f;
  layer.params()[0]->at(1, 1) = 4.0f;
  (*layer.params()[1])[0] = 0.5f;  // b = [0.5, -0.5]
  (*layer.params()[1])[1] = -0.5f;
  const Tensor x(Shape{1, 2}, {1.0f, 1.0f});
  const Tensor y = layer.forward(x, serial_ctx, false);
  EXPECT_FLOAT_EQ(y[0], 4.5f);
  EXPECT_FLOAT_EQ(y[1], 5.5f);
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(3);
  Dense layer(4, 2, Init::he_normal, rng);
  EXPECT_THROW(layer.forward(Tensor(Shape{1, 5}), serial_ctx, false), Error);
}

TEST(Conv2D, GradientCheck) {
  Rng rng(4);
  Conv2D layer(2, 3, 3, 1, 1, Init::he_normal, rng);
  check_gradients(layer, Tensor::randn(Shape{2, 2, 5, 5}, rng));
}

TEST(Conv2D, StridedGradientCheck) {
  Rng rng(5);
  Conv2D layer(1, 2, 3, 2, 1, Init::he_normal, rng);
  check_gradients(layer, Tensor::randn(Shape{1, 1, 6, 6}, rng));
}

TEST(Conv2D, OutputShape) {
  Rng rng(6);
  Conv2D same(3, 8, 3, 1, 1, Init::he_normal, rng);
  const Tensor y = same.forward(Tensor(Shape{2, 3, 12, 12}), serial_ctx, false);
  EXPECT_TRUE(y.shape() == (Shape{2, 8, 12, 12}));
  Conv2D strided(3, 4, 3, 2, 1, Init::he_normal, rng);
  const Tensor z =
      strided.forward(Tensor(Shape{1, 3, 8, 8}), serial_ctx, false);
  EXPECT_TRUE(z.shape() == (Shape{1, 4, 4, 4}));
}

TEST(Conv2D, IdentityKernelReproducesInput) {
  Rng rng(7);
  Conv2D layer(1, 1, 3, 1, 1, Init::zeros, rng);
  // Kernel = delta at center.
  (*layer.params()[0])[4] = 1.0f;
  const Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  const Tensor y = layer.forward(x, serial_ctx, false);
  EXPECT_LT(ops::max_abs_diff(x.flat(), y.flat()), 1e-6f);
}

TEST(ReLU, GradientCheckAndMasking) {
  Rng rng(8);
  ReLU layer;
  const Tensor x(Shape{2, 3}, {1.0f, -1.0f, 0.5f, -0.5f, 2.0f, -2.0f});
  const Tensor y = layer.forward(x, serial_ctx, true);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  const Tensor g = layer.backward(Tensor::full(Shape{2, 3}, 1.0f), serial_ctx);
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
}

TEST(Tanh, GradientCheck) {
  Rng rng(9);
  Tanh layer;
  check_gradients(layer, Tensor::randn(Shape{2, 5}, rng));
}

TEST(Sigmoid, GradientCheck) {
  Rng rng(10);
  Sigmoid layer;
  check_gradients(layer, Tensor::randn(Shape{2, 5}, rng));
}

TEST(MaxPool2D, ForwardSelectsMaxAndRoutesGradient) {
  MaxPool2D layer(2);
  const Tensor x(Shape{1, 1, 2, 2}, {1.0f, 9.0f, 3.0f, 2.0f});
  const Tensor y = layer.forward(x, serial_ctx, /*training=*/true);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  const Tensor g =
      layer.backward(Tensor::full(Shape{1, 1, 1, 1}, 5.0f), serial_ctx);
  EXPECT_FLOAT_EQ(g[1], 5.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(MaxPool2D, InferenceForwardDropsCacheAndRejectsBackward) {
  MaxPool2D layer(2);
  const Tensor x(Shape{1, 1, 2, 2}, {1.0f, 9.0f, 3.0f, 2.0f});
  (void)layer.forward(x, serial_ctx, /*training=*/true);
  EXPECT_GT(layer.cache_bytes(), 0u);
  const Tensor y = layer.forward(x, serial_ctx, /*training=*/false);
  EXPECT_FLOAT_EQ(y[0], 9.0f);  // same output either mode
  EXPECT_EQ(layer.cache_bytes(), 0u);
  EXPECT_THROW(
      layer.backward(Tensor::full(Shape{1, 1, 1, 1}, 5.0f), serial_ctx),
      Error);
}

TEST(MaxPool2D, RejectsIndivisibleInput) {
  MaxPool2D layer(2);
  EXPECT_THROW(layer.forward(Tensor(Shape{1, 1, 3, 4}), serial_ctx, false),
               Error);
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  GlobalAvgPool layer;
  const Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = layer.forward(x, serial_ctx, false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  const Tensor g =
      layer.backward(Tensor(Shape{1, 2}, {4.0f, 8.0f}), serial_ctx);
  EXPECT_FLOAT_EQ(g[0], 1.0f);   // 4 / 4
  EXPECT_FLOAT_EQ(g[4], 2.0f);   // 8 / 4
}

TEST(Flatten, RoundTripShapes) {
  Flatten layer;
  const Tensor x = Tensor::full(Shape{2, 3, 4, 5}, 1.0f);
  const Tensor y = layer.forward(x, serial_ctx, false);
  EXPECT_TRUE(y.shape() == (Shape{2, 60}));
  const Tensor g = layer.backward(y, serial_ctx);
  EXPECT_TRUE(g.shape() == x.shape());
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout layer(0.5, 42);
  Rng rng(11);
  const Tensor x = Tensor::randn(Shape{4, 4}, rng);
  const Tensor y = layer.forward(x, serial_ctx, /*training=*/false);
  EXPECT_LT(ops::max_abs_diff(x.flat(), y.flat()), 1e-9f);
}

TEST(Dropout, TrainingZerosAndRescales) {
  Dropout layer(0.5, 42);
  const Tensor x = Tensor::full(Shape{100, 10}, 1.0f);
  const Tensor y = layer.forward(x, serial_ctx, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (const float v : y.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // 1 / keep_prob
      sum += v;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.1);  // expectation preserved
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(Dropout(1.0, 1), Error);
  EXPECT_THROW(Dropout(-0.1, 1), Error);
}

TEST(Residual, GradientCheck) {
  Rng rng(12);
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Dense>(5, 5, Init::he_normal, rng));
  inner.push_back(std::make_unique<Tanh>());
  Residual layer(std::move(inner));
  check_gradients(layer, Tensor::randn(Shape{2, 5}, rng));
}

TEST(Residual, AddsIdentityPath) {
  Rng rng(13);
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Dense>(3, 3, Init::zeros, rng));
  Residual layer(std::move(inner));
  const Tensor x = Tensor::randn(Shape{1, 3}, rng);
  const Tensor y = layer.forward(x, serial_ctx, false);
  // Zero inner weights ⇒ F(x) = 0 ⇒ y = x.
  EXPECT_LT(ops::max_abs_diff(x.flat(), y.flat()), 1e-6f);
}

TEST(Residual, RejectsShapeChangingInner) {
  Rng rng(14);
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Dense>(3, 4, Init::he_normal, rng));
  Residual layer(std::move(inner));
  EXPECT_THROW(layer.forward(Tensor(Shape{1, 3}), serial_ctx, false), Error);
}

TEST(Layers, CloneIsDeepCopy) {
  Rng rng(15);
  Dense layer(3, 3, Init::he_normal, rng);
  auto copy = layer.clone();
  (*layer.params()[0])[0] += 100.0f;
  auto* copy_dense = dynamic_cast<Dense*>(copy.get());
  ASSERT_NE(copy_dense, nullptr);
  EXPECT_NE((*layer.params()[0])[0], (*copy_dense->params()[0])[0]);
}

TEST(Init, HeNormalVarianceMatchesFanIn) {
  Rng rng(16);
  Tensor w(Shape{200, 100});
  initialize(w, Init::he_normal, 200, 100, rng);
  double sq = 0.0;
  for (const float v : w.flat()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(sq / w.numel(), 2.0 / 200.0, 2.0 / 200.0 * 0.1);
}

TEST(Init, NamesRoundTrip) {
  for (const Init scheme : {Init::zeros, Init::he_normal, Init::he_uniform,
                            Init::xavier_normal, Init::xavier_uniform}) {
    EXPECT_EQ(init_from_name(init_name(scheme)), scheme);
  }
  EXPECT_THROW(init_from_name("bogus"), Error);
}

}  // namespace
}  // namespace vcdl
