// Execution-context & threading regression suite.
//
// Pins down the determinism contract of the ExecContext plumbing:
//   * the serial path (worker_threads == 1, no pool) is bit-identical to the
//     pre-ExecContext implementation (hardcoded golden values),
//   * a 1-thread pool is bit-identical to no pool,
//   * an N-thread pool keeps forward outputs and input gradients
//     bit-identical and weight gradients / run metrics within tolerance,
//     deterministically for a fixed thread count,
//   * activation caches exist only between a training forward and its
//     backward — inference forwards and clones carry none.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/local_sgd.hpp"
#include "core/trainer.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "tensor/exec_context.hpp"
#include "tensor/ops.hpp"
#include "testing/oracles.hpp"

namespace vcdl {
namespace {

// The shared miniature job + helpers (testing/oracles.hpp). The golden
// values below are pinned to tiny_image_spec — see its doc comment.
using testing::tiny_resnet;

ExperimentSpec tiny_spec() { return testing::tiny_image_spec(); }

// --- Golden regression: serial path is bit-identical to the pre-PR seed ----
//
// Values captured from the seed commit (before the ExecContext refactor) by
// running the identical specs through run_experiment. EXPECT_DOUBLE_EQ: any
// change in float arithmetic order in the serial hot path trips these.

TEST(GoldenSerial, ConvRunMatchesPreRefactorSeedBitExactly) {
  const TrainResult r = run_experiment(tiny_spec());
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.epochs[0].end_time, 360.98574768936663);
  EXPECT_DOUBLE_EQ(r.epochs[0].mean_subtask_acc, 0.10546875);
  EXPECT_DOUBLE_EQ(r.epochs[0].val_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[0].test_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[1].end_time, 734.06203398916170);
  EXPECT_DOUBLE_EQ(r.epochs[1].mean_subtask_acc, 0.12109374999999999);
  EXPECT_DOUBLE_EQ(r.epochs[1].val_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[1].test_acc, 0.10000000000000001);
}

TEST(GoldenSerial, MlpRunMatchesPreRefactorSeedBitExactly) {
  ExperimentSpec spec = tiny_spec();
  spec.model_kind = ExperimentSpec::ModelKind::mlp;
  const TrainResult r = run_experiment(spec);
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.epochs[0].end_time, 360.98602395869995);
  EXPECT_DOUBLE_EQ(r.epochs[0].mean_subtask_acc, 0.0859375);
  EXPECT_DOUBLE_EQ(r.epochs[0].val_acc, 0.11666666666666667);
  EXPECT_DOUBLE_EQ(r.epochs[0].test_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[1].end_time, 734.06231026916157);
  EXPECT_DOUBLE_EQ(r.epochs[1].mean_subtask_acc, 0.1171875);
  EXPECT_DOUBLE_EQ(r.epochs[1].val_acc, 0.11666666666666667);
  EXPECT_DOUBLE_EQ(r.epochs[1].test_acc, 0.10000000000000001);
}

// --- Pool-vs-serial determinism at the model level -------------------------

TEST(ExecThreading, OneThreadPoolBitIdenticalToSerial) {
  Model serial = tiny_resnet(11);
  Model pooled = serial;  // identical weights
  ThreadPool pool(1);
  ExecContext pooled_ctx;
  pooled_ctx.pool = &pool;
  Rng rng(3);
  const Tensor x = Tensor::randn(Shape{6, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5};

  const Tensor ys = train_step(serial, x, labels, serial_exec_context());
  const Tensor yp = train_step(pooled, x, labels, pooled_ctx);
  ASSERT_TRUE(ys.shape() == yp.shape());
  for (std::size_t i = 0; i < ys.numel(); ++i) EXPECT_EQ(ys[i], yp[i]);

  const auto gs = serial.grads();
  const auto gp = pooled.grads();
  ASSERT_EQ(gs.size(), gp.size());
  for (std::size_t t = 0; t < gs.size(); ++t) {
    for (std::size_t i = 0; i < gs[t]->numel(); ++i) {
      EXPECT_EQ((*gs[t])[i], (*gp[t])[i]) << "grad tensor " << t;
    }
  }
}

TEST(ExecThreading, FourThreadForwardBitIdenticalGradsWithinTolerance) {
  Model serial = tiny_resnet(17);
  Model pooled = serial;
  ThreadPool pool(4);
  ExecContext pooled_ctx;
  pooled_ctx.pool = &pool;
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{8, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5, 6, 7};

  const Tensor ys = train_step(serial, x, labels, serial_exec_context());
  const Tensor yp = train_step(pooled, x, labels, pooled_ctx);
  // Forward batch-splitting writes disjoint slices: bit-identical.
  for (std::size_t i = 0; i < ys.numel(); ++i) EXPECT_EQ(ys[i], yp[i]);
  // Only the Conv2D weight-gradient reduction regroups float sums; every
  // gradient stays within a tight tolerance of the serial result.
  const auto gs = serial.grads();
  const auto gp = pooled.grads();
  ASSERT_EQ(gs.size(), gp.size());
  for (std::size_t t = 0; t < gs.size(); ++t) {
    EXPECT_LE(ops::max_abs_diff(gs[t]->flat(), gp[t]->flat()), 1e-4f)
        << "grad tensor " << t;
  }
}

TEST(ExecThreading, FourThreadRunDeterministicAndCloseToSerial) {
  ExperimentSpec threaded = tiny_spec();
  threaded.worker_threads = 4;
  const TrainResult serial = run_experiment(tiny_spec());
  const TrainResult a = run_experiment(threaded);
  const TrainResult b = run_experiment(threaded);
  ASSERT_EQ(a.epochs.size(), serial.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    // Virtual time is independent of the worker pool entirely.
    EXPECT_DOUBLE_EQ(a.epochs[i].end_time, serial.epochs[i].end_time);
    // Chunk boundaries are a pure function of (range, pool size): identical
    // thread counts give identical results, run to run.
    EXPECT_DOUBLE_EQ(a.epochs[i].mean_subtask_acc,
                     b.epochs[i].mean_subtask_acc);
    EXPECT_DOUBLE_EQ(a.epochs[i].val_acc, b.epochs[i].val_acc);
    EXPECT_DOUBLE_EQ(a.epochs[i].test_acc, b.epochs[i].test_acc);
    // Against serial, only the conv weight-gradient reduction differs.
    EXPECT_NEAR(a.epochs[i].mean_subtask_acc, serial.epochs[i].mean_subtask_acc,
                1e-4);
    EXPECT_NEAR(a.epochs[i].val_acc, serial.epochs[i].val_acc, 1e-4);
    EXPECT_NEAR(a.epochs[i].test_acc, serial.epochs[i].test_acc, 1e-4);
  }
}

// --- Activation-cache lifecycle --------------------------------------------

TEST(CacheLifecycle, TrainingCachesInferenceDoesNot) {
  Model m = tiny_resnet(23);
  Rng rng(7);
  const Tensor x = Tensor::randn(Shape{4, 3, 8, 8}, rng);
  EXPECT_EQ(m.cache_bytes(), 0u);
  (void)m.forward(x, serial_exec_context(), /*training=*/true);
  const std::size_t trained = m.cache_bytes();
  EXPECT_GT(trained, 0u);
  // An inference pass must not just skip caching — it must free stale caches.
  (void)m.forward(x, serial_exec_context(), /*training=*/false);
  EXPECT_EQ(m.cache_bytes(), 0u);
}

TEST(CacheLifecycle, CloneCarriesNoCaches) {
  Model m = tiny_resnet(29);
  Rng rng(9);
  const Tensor x = Tensor::randn(Shape{4, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3};
  (void)train_step(m, x, labels, serial_exec_context());
  ASSERT_GT(m.cache_bytes(), 0u);
  const Model clone = m;
  EXPECT_EQ(clone.cache_bytes(), 0u);
  // Same parameters though: the clone is a faithful replica.
  EXPECT_EQ(clone.flat_params(), m.flat_params());
}

TEST(CacheLifecycle, BackwardAfterInferenceForwardThrows) {
  Rng rng(13);
  Dense dense(4, 3, Init::he_normal, rng);
  const Tensor x = Tensor::randn(Shape{2, 4}, rng);
  (void)dense.forward(x, serial_exec_context(), /*training=*/false);
  EXPECT_THROW(dense.backward(Tensor(Shape{2, 3}), serial_exec_context()),
               Error);

  Conv2D conv(1, 2, 3, 1, 1, Init::he_normal, rng);
  const Tensor img = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  (void)conv.forward(img, serial_exec_context(), /*training=*/false);
  EXPECT_THROW(
      conv.backward(Tensor(Shape{2, 2, 4, 4}), serial_exec_context()), Error);
}

TEST(CacheLifecycle, BackwardOnFreshCloneThrows) {
  Rng rng(31);
  Conv2D conv(1, 2, 3, 1, 1, Init::he_normal, rng);
  const Tensor img = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  (void)conv.forward(img, serial_exec_context(), /*training=*/true);
  const auto clone = conv.clone();
  EXPECT_THROW(
      clone->backward(Tensor(Shape{2, 2, 4, 4}), serial_exec_context()),
      Error);
  // The original still has its cache and can run backward.
  (void)conv.backward(Tensor(Shape{2, 2, 4, 4}), serial_exec_context());
}

// --- Conv2D pool-vs-serial invariants --------------------------------------

TEST(Conv2DThreading, PoolForwardAndInputGradBitIdenticalWeightGradClose) {
  Rng rng(41);
  Conv2D serial(3, 4, 3, 1, 1, Init::he_normal, rng);
  Conv2D pooled(serial);
  ThreadPool pool(3);
  ExecContext ctx;
  ctx.pool = &pool;
  const Tensor x = Tensor::randn(Shape{7, 3, 6, 6}, rng);
  const Tensor dy = Tensor::randn(Shape{7, 4, 6, 6}, rng);

  const Tensor ys = serial.forward(x, serial_exec_context(), /*training=*/true);
  const Tensor yp = pooled.forward(x, ctx, /*training=*/true);
  for (std::size_t i = 0; i < ys.numel(); ++i) EXPECT_EQ(ys[i], yp[i]);

  serial.zero_grads();
  pooled.zero_grads();
  const Tensor dxs = serial.backward(dy, serial_exec_context());
  const Tensor dxp = pooled.backward(dy, ctx);
  // dX is per-item disjoint: bit-identical under batch splitting.
  for (std::size_t i = 0; i < dxs.numel(); ++i) EXPECT_EQ(dxs[i], dxp[i]);
  // dW/db reduce per-chunk partials: within tolerance, not bit-identical.
  EXPECT_LE(ops::max_abs_diff(serial.grads()[0]->flat(),
                              pooled.grads()[0]->flat()),
            1e-4f);
  EXPECT_LE(ops::max_abs_diff(serial.grads()[1]->flat(),
                              pooled.grads()[1]->flat()),
            1e-4f);
}

// --- ScratchArena ------------------------------------------------------------

TEST(ScratchArena, ReusesSlotsAndTracksBytes) {
  ScratchArena arena;
  Tensor& a = arena.get(0, Shape{4, 8});
  const float* storage = a.data();
  a.fill(3.0f);
  // Same slot, same shape: same tensor, same storage, contents preserved.
  Tensor& again = arena.get(0, Shape{4, 8});
  EXPECT_EQ(&again, &a);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(again[0], 3.0f);
  // Shrinking reshape keeps the allocation.
  Tensor& small = arena.get(0, Shape{2, 4});
  EXPECT_EQ(&small, &a);
  EXPECT_TRUE(small.shape() == (Shape{2, 4}));
  EXPECT_EQ(small.data(), storage);
  // Slots are independent and bytes() sums them.
  (void)arena.get(2, Shape{10});
  EXPECT_EQ(arena.slots(), 3u);
  EXPECT_EQ(arena.bytes(), (2 * 4 + 0 + 10) * sizeof(float));
  arena.release();
  EXPECT_EQ(arena.slots(), 0u);
  EXPECT_EQ(arena.bytes(), 0u);
}

TEST(ScratchArena, ExecContextWorkers) {
  ExecContext ctx;
  EXPECT_EQ(ctx.workers(), 1u);
  ThreadPool pool(3);
  ctx.pool = &pool;
  EXPECT_EQ(ctx.workers(), 3u);
}

// --- False-sharing guard ----------------------------------------------------

// Conv2D::backward reduces per-chunk dw/db partials that live in adjacent
// arena slots. If two chunks' accumulators shared a cache line, every
// parallel backward would ping-pong that line between cores — a silent
// scaling killer that no correctness test catches. The Tensor backing store
// is 64-byte aligned precisely to rule this out; pin it.
TEST(ExecThreading, TensorStorageIsCacheLineAligned) {
  for (const Shape& s : {Shape{1}, Shape{3}, Shape{4, 9}, Shape{2, 3, 5, 7}}) {
    Tensor t(s);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u)
        << s.to_string();
  }
  // The arena hands out the same guarantee — these are the actual per-chunk
  // accumulator allocations.
  ScratchArena arena;
  for (std::size_t slot = 0; slot < 8; ++slot) {
    Tensor& t = arena.get(slot, Shape{3});  // small: adjacent lines if packed
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u)
        << "slot " << slot;
  }
}

// --- Hot-path observability cost -------------------------------------------

// Queue latency is sampled once per pooled dispatch (by the first queued
// chunk), not once per chunk: per-chunk clock reads put the obs layer on the
// hot path it exists to diagnose. The count must grow by exactly the number
// of dispatches, independent of the pool width.
TEST(ExecThreading, PoolWaitSampledOncePerDispatch) {
  obs::Histogram& wait =
      obs::registry().histogram("exec.pool_wait_s", {0.0, 0.01, 40});
  ThreadPool pool(4);
  Rng rng(51);
  const Tensor a = Tensor::randn(Shape{32, 6}, rng);  // 32 >= 4*pool.size()
  const Tensor b = Tensor::randn(Shape{6, 5}, rng);
  Tensor c;
  const std::uint64_t before = wait.count();
  constexpr std::uint64_t kDispatches = 7;
  for (std::uint64_t i = 0; i < kDispatches; ++i) {
    ops::matmul(a, b, c, /*accumulate=*/false, &pool);
  }
  EXPECT_EQ(wait.count(), before + kDispatches);
  // Serial calls (no pool) must not sample at all.
  ops::matmul(a, b, c);
  EXPECT_EQ(wait.count(), before + kDispatches);
}

// --- SIMD tier vs model-level determinism ----------------------------------

// The contract behind the GoldenSerial pins above: whichever vector tier the
// host dispatches to, a full train step is bitwise the scalar result — not
// just per-GEMM, but through conv's im2col/col2im and the loss.
TEST(ExecThreading, ForcedScalarTierBitIdenticalToActiveTierTrainStep) {
  Model active = tiny_resnet(47);
  Model scalar = active;
  Rng rng(53);
  const Tensor x = Tensor::randn(Shape{6, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5};

  const Tensor ya = train_step(active, x, labels, serial_exec_context());
  ops::set_simd_tier_override(ops::SimdTier::scalar);
  const Tensor ys = train_step(scalar, x, labels, serial_exec_context());
  ops::set_simd_tier_override(std::nullopt);

  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], ys[i]);
  const auto ga = active.grads();
  const auto gs = scalar.grads();
  ASSERT_EQ(ga.size(), gs.size());
  for (std::size_t t = 0; t < ga.size(); ++t) {
    for (std::size_t i = 0; i < ga[t]->numel(); ++i) {
      EXPECT_EQ((*ga[t])[i], (*gs[t])[i]) << "grad tensor " << t;
    }
  }
}

}  // namespace
}  // namespace vcdl
