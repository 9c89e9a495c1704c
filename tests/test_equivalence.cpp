// Equivalence-oracle tier: metamorphic properties pinning that two different
// execution paths compute the same thing (testing/oracles.hpp).
//
//   * serial vs N-thread ExecContext training on random models,
//   * P1C1T1 VC-ASGD with α = 0 vs a plain serial SGD replay (exact),
//   * checkpoint save/restore vs uninterrupted execution (the Checkpointer
//     state-hook channel added for RNG/counter state),
//   * compress and model-blob codecs round-tripping bit-exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/compress.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/local_sgd.hpp"
#include "core/trainer.hpp"
#include "nn/model_io.hpp"
#include "storage/checkpoint.hpp"
#include "storage/kvstore.hpp"
#include "tensor/exec_context.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using testing::PropConfig;
using testing::PropResult;
using testing::gen_blob;
using testing::gen_model_case;
using testing::prop_assert;
using testing::run_property;
using testing::serial_vcasgd_reference;
using testing::tiny_image_spec;

// --- Serial vs pooled ExecContext on random models --------------------------

TEST(Equivalence, SerialVsThreadedTrainingStepOnRandomModels) {
  PropConfig cfg;
  cfg.name = "equiv.serial-vs-pooled";
  cfg.suite = "test_equivalence";
  cfg.trials = 12;
  cfg.max_size = 12;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    auto mc = gen_model_case(rng, size);
    Model serial = mc.model;   // deep copies with identical weights
    Model pooled = mc.model;
    ThreadPool pool(1 + rng.uniform_index(3));  // 1-3 workers
    ExecContext pooled_ctx;
    pooled_ctx.pool = &pool;

    const Tensor ys =
        train_step(serial, mc.input, mc.labels, serial_exec_context());
    const Tensor yp = train_step(pooled, mc.input, mc.labels, pooled_ctx);

    // Contract (tensor/exec_context.hpp): forwards are bit-identical.
    prop_assert(ys.shape() == yp.shape(), mc.desc + ": logit shape differs");
    for (std::size_t i = 0; i < ys.numel(); ++i) {
      prop_assert(ys[i] == yp[i],
                  mc.desc + ": logit " + std::to_string(i) + " differs");
    }
    // Weight gradients: bit-identical except Conv2D's reduction, which must
    // still agree within tolerance.
    const auto gs = serial.grads();
    const auto gp = pooled.grads();
    prop_assert(gs.size() == gp.size(), mc.desc + ": grad count differs");
    for (std::size_t t = 0; t < gs.size(); ++t) {
      const auto a = gs[t]->flat();
      const auto b = gp[t]->flat();
      prop_assert(a.size() == b.size(), mc.desc + ": grad size differs");
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (mc.has_conv) {
          prop_assert(std::fabs(a[i] - b[i]) <= 1e-4f,
                      mc.desc + ": grad diverged beyond tolerance at tensor " +
                          std::to_string(t));
        } else {
          prop_assert(a[i] == b[i],
                      mc.desc + ": conv-free grad not bit-identical at tensor " +
                          std::to_string(t));
        }
      }
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// --- VC-ASGD with α = 0 vs plain serial SGD ---------------------------------

ExperimentSpec alpha0_spec(ExperimentSpec::ModelKind kind) {
  ExperimentSpec spec = tiny_image_spec(/*trace=*/true);
  spec.parameter_servers = 1;
  spec.clients = 1;
  spec.tasks_per_client = 1;
  spec.alpha = "0";
  spec.num_shards = 4;
  spec.data.train = 80;
  spec.model_kind = kind;
  return spec;
}

void expect_alpha0_matches_serial(const ExperimentSpec& spec) {
  VcTrainer trainer(spec);
  const TrainResult result = trainer.run();
  ASSERT_FALSE(result.final_params.empty());
  const std::vector<float> reference =
      serial_vcasgd_reference(spec, trainer.trace());
  ASSERT_EQ(reference.size(), result.final_params.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Exact equality: α = 0 publishes 0·server + 1·client, so the replayed
    // SGD must land on precisely the same floats, not merely close ones.
    ASSERT_EQ(result.final_params[i], reference[i]) << "param " << i;
  }
}

TEST(Equivalence, Alpha0SingleClientEqualsSerialSgdConv) {
  expect_alpha0_matches_serial(alpha0_spec(ExperimentSpec::ModelKind::resnet_lite));
}

TEST(Equivalence, Alpha0SingleClientEqualsSerialSgdMlp) {
  expect_alpha0_matches_serial(alpha0_spec(ExperimentSpec::ModelKind::mlp));
}

// --- Checkpoint save/restore vs uninterrupted run ---------------------------

TEST(Equivalence, CheckpointerStateHooksRewindSideState) {
  auto store = make_store("eventual");
  std::vector<float> published;
  Checkpointer cp(*store, "params", [&](const Blob& blob) {
    published = load_params(blob);
  });
  std::uint64_t counter = 7;
  cp.set_state_hooks(
      [&] {
        BinaryWriter w;
        w.write(counter);
        return w.take();
      },
      [&](const Blob& blob) {
        BinaryReader r(blob);
        counter = r.read<std::uint64_t>();
      });

  const std::vector<float> v0 = {1.0f, 2.0f, 3.0f};
  store->put("params", save_params(std::span<const float>(v0)));
  ASSERT_TRUE(cp.snapshot());

  // The run moves on: parameters change AND the side state advances.
  counter = 99;
  const std::vector<float> v1 = {9.0f, 9.0f, 9.0f};
  store->put("params", save_params(std::span<const float>(v1)));

  // Restore must rewind both channels together — parameters without the RNG
  // cursor would resume a *different* randomness stream than the one the
  // snapshot's parameters were trained with.
  ASSERT_TRUE(cp.restore());
  EXPECT_EQ(published, v0);
  EXPECT_EQ(counter, 7u);
}

TEST(Equivalence, RngStateSnapshotMakesResumeEquivalent) {
  // Simulated interrupted computation: accumulate 40 normal draws. The
  // uninterrupted run and a run that snapshots at draw 20, "crashes", and
  // restores must produce identical tails — this is exactly what
  // Rng::state()/set_state buys checkpoint replay.
  Rng uninterrupted(2024);
  std::vector<double> full;
  for (int i = 0; i < 40; ++i) full.push_back(uninterrupted.normal());

  Rng run(2024);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(run.normal(), full[static_cast<std::size_t>(i)]);
  }
  const Rng::State snap = run.state();
  for (int i = 0; i < 11; ++i) (void)run.normal();  // doomed post-snapshot work

  Rng resumed(1);  // fresh process after the crash
  resumed.set_state(snap);
  for (int i = 20; i < 40; ++i) {
    ASSERT_EQ(resumed.normal(), full[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(Equivalence, CrashRecoveryRunStaysDeterministic) {
  // A run with a mid-flight crash + checkpoint replay must reproduce itself
  // exactly — restore() rewinding params AND the subtask RNG cursor is what
  // keeps the second run's post-crash randomness identical to the first's.
  ExperimentSpec spec = tiny_image_spec(/*trace=*/true);
  spec.faults.server_crashes = {200.0};
  spec.faults.server_recovery_s = 30.0;
  spec.checkpoint_interval_s = 60.0;
  VcTrainer a(spec);
  const TrainResult ra = a.run();
  VcTrainer b(spec);
  const TrainResult rb = b.run();
  ASSERT_EQ(ra.totals.checkpoint_restores, 1u);
  ASSERT_EQ(ra.epochs.size(), rb.epochs.size());
  for (std::size_t e = 0; e < ra.epochs.size(); ++e) {
    EXPECT_EQ(ra.epochs[e].mean_subtask_acc, rb.epochs[e].mean_subtask_acc);
    EXPECT_EQ(ra.epochs[e].end_time, rb.epochs[e].end_time);
  }
  ASSERT_EQ(ra.final_params.size(), rb.final_params.size());
  for (std::size_t i = 0; i < ra.final_params.size(); ++i) {
    ASSERT_EQ(ra.final_params[i], rb.final_params[i]) << "param " << i;
  }
}

// --- Roundtrip oracles ------------------------------------------------------

TEST(Equivalence, CompressRoundTripsRandomBlobs) {
  PropConfig cfg;
  cfg.name = "equiv.compress-roundtrip";
  cfg.suite = "test_equivalence";
  cfg.trials = 30;
  cfg.max_size = 20;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const Blob in = gen_blob(rng, static_cast<std::size_t>(size) * 400);
    const Blob out = decompress(compress(in));
    prop_assert(out == in, "compress/decompress mutated a blob of " +
                               std::to_string(in.size()) + " bytes");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

TEST(Equivalence, ParamAndArchitectureCodecsRoundTripRandomModels) {
  PropConfig cfg;
  cfg.name = "equiv.model-codec-roundtrip";
  cfg.suite = "test_equivalence";
  cfg.trials = 12;
  cfg.max_size = 10;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    auto mc = gen_model_case(rng, size);
    // Parameter blob: exact float round-trip.
    const auto flat = mc.model.flat_params();
    const auto back = load_params(save_params(mc.model));
    prop_assert(back.size() == flat.size(), mc.desc + ": param count changed");
    for (std::size_t i = 0; i < flat.size(); ++i) {
      prop_assert(back[i] == flat[i], mc.desc + ": param " +
                                          std::to_string(i) + " mutated");
    }
    // Architecture blob: layer kinds and parameter count survive.
    Model rebuilt = load_architecture(save_architecture(mc.model), rng());
    prop_assert(rebuilt.layer_count() == mc.model.layer_count(),
                mc.desc + ": layer count changed");
    for (std::size_t i = 0; i < rebuilt.layer_count(); ++i) {
      prop_assert(rebuilt.layer(i).kind() == mc.model.layer(i).kind(),
                  mc.desc + ": layer " + std::to_string(i) + " kind changed");
    }
    prop_assert(rebuilt.parameter_count() == mc.model.parameter_count(),
                mc.desc + ": parameter count changed");
    // And loading the original parameters into the rebuilt model must
    // reproduce the original forward exactly.
    load_params_into(rebuilt, save_params(mc.model));
    const Tensor y0 = mc.model.forward(mc.input, serial_exec_context());
    const Tensor y1 = rebuilt.forward(mc.input, serial_exec_context());
    for (std::size_t i = 0; i < y0.numel(); ++i) {
      prop_assert(y0[i] == y1[i], mc.desc + ": rebuilt forward differs");
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

}  // namespace
}  // namespace vcdl
