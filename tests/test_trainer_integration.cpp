// End-to-end integration tests of the full VC-ASGD system on a miniature
#include <cmath>
#include <cstdlib>
// job. These exercise every moving part (data → shards → grid → clients →
// parameter servers → stores → epoch accounting) in one simulated run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/report.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "testing/oracles.hpp"

namespace vcdl {
namespace {

// The shared miniature job (testing/oracles.hpp): 8 shards of a small
// dataset, 2 epochs, tiny model, with tracing on.
ExperimentSpec tiny_spec() { return testing::tiny_image_spec(/*trace=*/true); }

TEST(TrainerIntegration, CompletesAndRecordsEpochs) {
  const TrainResult result = run_experiment(tiny_spec());
  ASSERT_EQ(result.epochs.size(), 2u);
  EXPECT_EQ(result.epochs[0].epoch, 1u);
  EXPECT_EQ(result.epochs[1].epoch, 2u);
  EXPECT_EQ(result.epochs[0].results, 8u);
  EXPECT_EQ(result.epochs[1].results, 8u);
  EXPECT_GT(result.epochs[0].end_time, 0.0);
  EXPECT_GT(result.epochs[1].end_time, result.epochs[0].end_time);
  EXPECT_DOUBLE_EQ(result.totals.duration_s, result.epochs[1].end_time);
  EXPECT_GT(result.totals.parameter_count, 0u);
}

TEST(TrainerIntegration, AccuraciesAreValidAndOrdered) {
  const TrainResult result = run_experiment(tiny_spec());
  for (const auto& e : result.epochs) {
    EXPECT_GE(e.min_subtask_acc, 0.0);
    EXPECT_LE(e.max_subtask_acc, 1.0);
    EXPECT_LE(e.min_subtask_acc, e.mean_subtask_acc);
    EXPECT_LE(e.mean_subtask_acc, e.max_subtask_acc);
    EXPECT_GE(e.std_subtask_acc, 0.0);
    EXPECT_GE(e.val_acc, 0.0);
    EXPECT_LE(e.val_acc, 1.0);
    EXPECT_GE(e.test_acc, 0.0);
    EXPECT_LE(e.test_acc, 1.0);
  }
}

TEST(TrainerIntegration, DeterministicForSeed) {
  ExperimentSpec spec = tiny_spec();
  const TrainResult a = run_experiment(spec);
  const TrainResult b = run_experiment(spec);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epochs[i].end_time, b.epochs[i].end_time);
    EXPECT_DOUBLE_EQ(a.epochs[i].mean_subtask_acc, b.epochs[i].mean_subtask_acc);
    EXPECT_DOUBLE_EQ(a.epochs[i].val_acc, b.epochs[i].val_acc);
  }
  spec.seed = 1234;
  const TrainResult c = run_experiment(spec);
  EXPECT_NE(a.epochs.back().end_time, c.epochs.back().end_time);
}

TEST(TrainerIntegration, StrongStoreCompletesWithoutLostUpdates) {
  ExperimentSpec spec = tiny_spec();
  spec.store = "strong";
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_EQ(result.totals.lost_updates, 0u);
  EXPECT_GE(result.totals.store_writes, 16u);  // one per assimilation + init
}

TEST(TrainerIntegration, StrongStoreIsSlowerThanEventual) {
  ExperimentSpec eventual = tiny_spec();
  ExperimentSpec strong = tiny_spec();
  strong.store = "strong";
  const TrainResult re = run_experiment(eventual);
  const TrainResult rs = run_experiment(strong);
  // §IV-D: each update transaction costs 1.29 s vs 0.87 s, so the strong run
  // takes longer in virtual time for the same number of updates.
  EXPECT_GT(rs.totals.duration_s, re.totals.duration_s);
}

TEST(TrainerIntegration, PreemptionRunCompletesWithFaults) {
  ExperimentSpec spec = tiny_spec();
  spec.preemptible = true;
  spec.interruption_per_hour = 20.0;  // very hostile fleet
  spec.preemption_downtime_s = 60.0;
  spec.subtask_timeout_s = 240.0;
  spec.max_epochs = 2;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_GT(result.totals.preemptions, 0u);
  // Every epoch still assimilated all its subtasks exactly once.
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
}

TEST(TrainerIntegration, PreemptionCostsTime) {
  ExperimentSpec calm = tiny_spec();
  ExperimentSpec hostile = tiny_spec();
  hostile.preemptible = true;
  hostile.interruption_per_hour = 20.0;
  hostile.subtask_timeout_s = 240.0;
  const TrainResult a = run_experiment(calm);
  const TrainResult b = run_experiment(hostile);
  EXPECT_GT(b.totals.duration_s, a.totals.duration_s);
  EXPECT_GE(b.totals.timeouts, 1u);
}

TEST(TrainerIntegration, LabelSkewShardsStillComplete) {
  ExperimentSpec spec = tiny_spec();
  spec.shard_policy = ShardPolicy::label_skew;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
}

TEST(TrainerIntegration, ReplicationProducesDuplicates) {
  ExperimentSpec spec = tiny_spec();
  spec.replication = 2;
  spec.clients = 3;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
  EXPECT_GT(result.totals.duplicates, 0u);
}

TEST(TrainerIntegration, TargetAccuracyStopsEarly) {
  ExperimentSpec spec = tiny_spec();
  spec.max_epochs = 10;
  spec.target_accuracy = 0.0;  // any accuracy satisfies it
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 1u);
}

TEST(TrainerIntegration, StickyCacheReducesTraffic) {
  const TrainResult result = run_experiment(tiny_spec());
  // Architecture + shards are re-used across the 16 subtasks.
  EXPECT_GT(result.totals.cache_hits, 0u);
  EXPECT_GT(result.totals.bytes_wire, 0u);
}

TEST(TrainerIntegration, TraceCapturesLifecycle) {
  ExperimentSpec spec = tiny_spec();
  VcTrainer trainer(spec);
  (void)trainer.run();
  const TraceLog& trace = trainer.trace();
  EXPECT_EQ(trace.count(TraceKind::work_generated), 16u);
  EXPECT_EQ(trace.count(TraceKind::assimilated), 16u);
  EXPECT_EQ(trace.count(TraceKind::epoch_done), 2u);
  EXPECT_EQ(trace.count(TraceKind::job_done), 1u);
  // Causality: every exec_done is preceded by an exec_start.
  EXPECT_EQ(trace.count(TraceKind::exec_start),
            trace.count(TraceKind::exec_done));
}

TEST(TrainerIntegration, HelpersOnResult) {
  const TrainResult result = run_experiment(tiny_spec());
  EXPECT_EQ(&result.final_epoch(), &result.epochs.back());
  EXPECT_EQ(result.epochs_to_accuracy(0.0), 1u);
  EXPECT_EQ(result.epochs_to_accuracy(2.0), 0u);
  EXPECT_TRUE(std::isinf(result.time_to_accuracy(2.0)));
  EXPECT_DOUBLE_EQ(result.time_to_accuracy(0.0), result.epochs[0].end_time);
}

TEST(TrainerIntegration, MoreClientsFinishFaster) {
  ExperimentSpec small = tiny_spec();
  small.clients = 1;
  small.parameter_servers = 1;
  ExperimentSpec big = tiny_spec();
  big.clients = 4;
  big.parameter_servers = 2;
  const TrainResult a = run_experiment(small);
  const TrainResult b = run_experiment(big);
  EXPECT_LT(b.totals.duration_s, a.totals.duration_s);
}

TEST(TrainerIntegration, InvalidSpecRejected) {
  ExperimentSpec spec = tiny_spec();
  spec.clients = 0;
  EXPECT_THROW(VcTrainer{spec}, Error);
  spec = tiny_spec();
  spec.parameter_servers = 0;
  EXPECT_THROW(VcTrainer{spec}, Error);
}

TEST(TrainerIntegration, ZeroBatchSizeRejected) {
  // A zero batch would never advance the local-SGD loop; it must fail up
  // front with a clear message, not deep inside a layer's backward.
  ExperimentSpec spec = tiny_spec();
  spec.batch_size = 0;
  EXPECT_THROW(run_experiment(spec), Error);
}

TEST(TrainerIntegration, ReliabilityGateRunCompletes) {
  ExperimentSpec spec = tiny_spec();
  spec.reliability_gate = 0.45;
  spec.preemptible = true;
  spec.interruption_per_hour = 10.0;
  spec.subtask_timeout_s = 240.0;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
}

TEST(TrainerIntegration, JsonExportOfRealRunIsBalanced) {
  const TrainResult result = run_experiment(tiny_spec());
  const std::string json = to_json(result);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"label\":\"P2C2T2\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs\":[{"), std::string::npos);
}

TEST(TrainerIntegration, TimeseriesMlpWorkload) {
  ExperimentSpec spec = tiny_spec();
  spec.workload = ExperimentSpec::Workload::timeseries;
  spec.model_kind = ExperimentSpec::ModelKind::mlp;
  spec.timeseries.regimes = 4;
  spec.timeseries.window = 24;
  spec.timeseries.train = 160;
  spec.timeseries.validation = 60;
  spec.timeseries.test = 60;
  const TrainResult result = run_experiment(spec);
  ASSERT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) {
    EXPECT_EQ(e.results, 8u);
    EXPECT_GE(e.val_acc, 0.0);
    EXPECT_LE(e.val_acc, 1.0);
  }
}

// Every RunTotals field of one miniature run that exercises each accounting
// path at once: transfer/store/corruption faults, a server crash with
// checkpoint replay, preemption, consensus with adaptive replication, an
// adversary, the blend guard and the delta codec. Pinned bit-exact, so a
// change to how the totals are derived cannot move any of them unnoticed.
TEST(TrainerIntegration, RunTotalsGoldenBitExact) {
  ExperimentSpec spec = testing::tiny_image_spec();
  spec.seed = 34;  // a seed on which every counted path fires at least once
  spec.clients = 4;
  spec.parameter_servers = 3;
  spec.replication = 2;
  spec.wire_codec = "delta";
  spec.client_retry.max_attempts = 2;
  spec.preemptible = true;
  spec.interruption_per_hour = 6.0;
  spec.preemption_downtime_s = 60.0;
  spec.subtask_timeout_s = 240.0;
  spec.faults.download.drop_prob = 0.10;
  spec.faults.download.stall_prob = 0.10;
  spec.faults.upload.drop_prob = 0.30;
  spec.faults.corruption_prob = 0.05;
  spec.faults.store.fail_prob = 0.10;
  spec.faults.store.slow_prob = 0.10;
  spec.faults.server_crashes = {150.0};
  spec.faults.server_recovery_s = 30.0;
  spec.checkpoint_interval_s = 60.0;
  spec.consensus.enabled = true;
  spec.consensus.quorum = 2;
  spec.consensus.tolerance = 0.1;
  spec.adaptive_replication = true;
  spec.adaptive_untrusted_replication = 2;
  spec.adaptive_spot_check_prob = 0.25;
  spec.adversary.fraction = 1.0 / 3.0;
  spec.adversary.mode = AttackMode::sign_flip;
  spec.adversary.attack_prob = 0.5;
  spec.blend_outlier_threshold = 1.0;
  const RunTotals t = run_experiment(spec).totals;

  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.duration_s), 0x4095ba4615f17dffull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.cost_standard_usd),
            0x3fe083869d3bf637ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.cost_preemptible_usd),
            0x3fc3d107efe18ddcull);
  EXPECT_EQ(t.timeouts, 17u);
  EXPECT_EQ(t.preemptions, 7u);
  EXPECT_EQ(t.lost_updates, 1u);
  EXPECT_EQ(t.store_reads, 40u);
  EXPECT_EQ(t.store_writes, 16u);
  EXPECT_EQ(t.cache_hits, 44u);
  EXPECT_EQ(t.bytes_wire, 260256u);
  EXPECT_EQ(t.bytes_uploaded, 178053u);
  EXPECT_EQ(t.param_bytes_wire, 131780u);
  EXPECT_EQ(t.param_bytes_full, 334753u);
  EXPECT_EQ(t.delta_pulls, 34u);
  EXPECT_EQ(t.duplicates, 1u);
  EXPECT_EQ(t.parameter_count, 1962u);
  EXPECT_EQ(t.transfer_failures, 18u);
  EXPECT_EQ(t.abandoned_subtasks, 3u);
  EXPECT_EQ(t.invalid_results, 3u);
  EXPECT_EQ(t.server_crashes, 1u);
  EXPECT_EQ(t.checkpoint_restores, 1u);
  EXPECT_EQ(t.reissued_units, 1u);
  EXPECT_EQ(t.byzantine_attacks, 4u);
  EXPECT_EQ(t.consensus_quorums, 11u);
  EXPECT_EQ(t.consensus_fallbacks, 6u);
  EXPECT_EQ(t.results_outvoted, 2u);
  EXPECT_EQ(t.blend_rejections, 2u);
  EXPECT_EQ(t.spot_checks, 2u);
}

// A subtask's upload is a function of its pinned inputs alone: two
// executors whose replicas hold different weights, one of which has already
// run another subtask on a warm scratch arena, return byte-identical
// payloads for the same PinnedSubtask — in every wire mode, monolithic and
// sharded, with and without a byzantine tamper.
TEST(SubtaskExecutor, UploadDependsOnlyOnPinnedInputs) {
  const SyntheticData data = make_synthetic_cifar(
      {.height = 8, .width = 8, .train = 24, .validation = 4, .test = 4,
       .seed = 3});
  const ResNetLiteSpec arch{.height = 8, .width = 8, .base_filters = 4,
                            .blocks = 1};
  Model fresh = make_resnet_lite(arch, 5);
  const Model used = make_resnet_lite(arch, 99);
  std::vector<std::size_t> layer_sizes(fresh.layer_count());
  for (std::size_t i = 0; i < fresh.layer_count(); ++i) {
    for (const Tensor* t : fresh.layer(i).params()) {
      layer_sizes[i] += t->numel();
    }
  }
  AdversaryPlan noise;
  noise.mode = AttackMode::noise;
  for (const WireMode mode :
       {WireMode::full, WireMode::delta, WireMode::delta_q8}) {
    for (const std::size_t shards : {1u, 4u}) {
      for (const bool tampered : {false, true}) {
        ExperimentSpec spec;
        spec.local_epochs = 1;
        spec.batch_size = 8;
        spec.wire_codec = wire_mode_name(mode);
        const ShardPlan plan = ShardPlan::build(layer_sizes, shards);
        SubtaskExecutor a(fresh, spec, plan);
        SubtaskExecutor b(used, spec, plan);
        ExecContext exec_a;
        ExecContext exec_b;
        (void)b.run({&data.validation, used.flat_params(), 3, Rng(77),
                     std::nullopt},
                    exec_b);
        PinnedSubtask pin{&data.train, fresh.flat_params(), 5, Rng(11),
                          std::nullopt};
        if (tampered) pin.tamper = Tamper{noise, 0x5EED};
        const Blob upload = a.run(pin, exec_a);
        EXPECT_EQ(upload, b.run(pin, exec_b))
            << wire_mode_name(mode) << " shards=" << shards
            << (tampered ? " tampered" : "");
        EXPECT_EQ(is_shard_bundle(upload),
                  mode != WireMode::full && shards > 1);
      }
    }
  }
}

TEST(TrainerIntegration, MlpOnImagesWorksToo) {
  ExperimentSpec spec = tiny_spec();
  spec.model_kind = ExperimentSpec::ModelKind::mlp;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
}

}  // namespace
}  // namespace vcdl
