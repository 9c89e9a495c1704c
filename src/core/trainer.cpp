#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/wire_codec.hpp"
#include "core/eval.hpp"
#include "core/local_sgd.hpp"
#include "core/param_server.hpp"
#include "core/work_generator.hpp"
#include "grid/client.hpp"
#include "nn/model_io.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "sim/cost.hpp"
#include "sim/faults.hpp"
#include "storage/checkpoint.hpp"
#include "storage/kvstore.hpp"

namespace vcdl {
namespace {
constexpr SimTime kTimeoutSweepPeriod = 15.0;

// --- Build -------------------------------------------------------------------

/// The run's inputs, derived from the spec alone.
struct RunInputs {
  SyntheticData data;
  ShardSet shards;
  Model template_model;
  std::vector<float> initial_params;
  /// Deterministic layer-boundary-aware slicing (core/shard_plan.hpp). A
  /// one-shard plan reproduces the monolithic plane exactly.
  ShardPlan plan;
};

RunInputs build_inputs(const ExperimentSpec& spec) {
  RunInputs in;
  if (spec.workload == ExperimentSpec::Workload::timeseries) {
    TimeseriesSpec ts = spec.timeseries;
    ts.seed = mix64(spec.seed, 0xDA7A);
    in.data = make_regime_timeseries(ts);
  } else {
    SyntheticSpec images = spec.data;
    images.seed = mix64(spec.seed, 0xDA7A);
    in.data = make_synthetic_cifar(images);
  }
  in.shards = make_shards(in.data.train, spec.num_shards, spec.shard_policy,
                          mix64(spec.seed, 0x5AAD));
  if (spec.model_kind == ExperimentSpec::ModelKind::mlp) {
    MlpSpec mlp = spec.mlp;
    if (mlp.inputs == 0) mlp.inputs = in.data.train.pixels_per_image();
    mlp.classes = in.data.train.classes();
    in.template_model = make_mlp(mlp, mix64(spec.seed, 0x30DE1));
  } else {
    in.template_model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  }
  in.initial_params = in.template_model.flat_params();
  std::vector<std::size_t> layer_sizes(in.template_model.layer_count());
  for (std::size_t i = 0; i < layer_sizes.size(); ++i) {
    for (const Tensor* t : in.template_model.layer(i).params()) {
      layer_sizes[i] += t->numel();
    }
  }
  in.plan = ShardPlan::build(layer_sizes, spec.param_shards);
  return in;
}

// --- Wire --------------------------------------------------------------------

/// Grid-side corruption screen. Wire frames carry their own body checksum,
/// so corruption is caught without the decode base; sharded uploads validate
/// per part, and full blobs go through load_params.
bool valid_upload(const Blob& payload) {
  try {
    if (is_wire_frame(payload)) return validate_frame(payload);
    if (is_shard_bundle(payload)) return validate_shard_bundle(payload);
    load_params(payload);
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::vector<std::string> checkpoint_keys(const ShardPlan& plan) {
  std::vector<std::string> keys;
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    keys.push_back(plan.shard_key("params", s));
  }
  return keys;
}

/// The system of Fig. 1 for one run. Members are constructed in declaration
/// order and configured in the constructor body in a fixed order — the DES
/// event order and every Rng stream depend on both. Components hold
/// references to each other, so the object never moves.
class WiredRun {
 public:
  WiredRun(const ExperimentSpec& spec, const RunInputs& in, TraceLog& trace,
           obs::Registry& metrics, const Rng& master)
      : spec_(spec), in_(in), trace_(trace), metrics_(metrics),
        master_(master) {
    eval_exec_.pool = exec_pool_.get();
    files_.set_wire_codec(wire_mode_, spec_.wire_version_ring);
    if (spec_.reliability_gate > 0.0) {
      scheduler_.set_reliability_gate(spec_.reliability_gate);
    }
    if (spec_.adaptive_replication) {
      scheduler_.enable_adaptive_replication(
          {.trust_threshold = spec_.adaptive_trust_threshold,
           .untrusted_replication = spec_.adaptive_untrusted_replication,
           .spot_check_prob = spec_.adaptive_spot_check_prob},
          master_.fork(0xADA7));
    }

    std::vector<Blob> shard_blobs;
    shard_blobs.reserve(in_.shards.count());
    for (const auto& shard : in_.shards.shards) {
      shard_blobs.push_back(shard.encode());
    }
    work_gen_.publish_static(save_architecture(in_.template_model),
                             std::move(shard_blobs));
    result_.spec = spec_;

    server_.set_backend(&assimilator_);
    if (spec_.consensus.enabled) {
      const auto& c = spec_.consensus;
      server_.enable_consensus(
          {.quorum = c.quorum,
           .tolerance = c.tolerance,
           .fallback_s = c.fallback_s > 0.0 ? c.fallback_s
                                            : spec_.subtask_timeout_s},
          [this](const Blob& payload) {
            return assimilator_.peek_decode(payload);
          });
    }
    assimilator_.set_exec_pool(exec_pool_.get());
    if (injector_) assimilator_.set_fault_injector(injector_.get());
    assimilator_.publish_initial(in_.initial_params);

    // Grid-server crash recovery: replaying a snapshot through
    // publish_initial rewinds the store value, the published parameter file
    // and the in-memory copy in one step; the state hooks rewind the task
    // Rng cursor, so post-restore subtasks redraw the same shuffles the lost
    // subtasks drew — without this the resume-equivalence oracle
    // (tests/test_equivalence.cpp) cannot hold.
    checkpointer_.set_state_hooks(
        [this] {
          BinaryWriter w;
          w.write(subtask_counter_);
          return w.take();
        },
        [this](const Blob& blob) {
          BinaryReader r(blob);
          subtask_counter_ = r.read<std::uint64_t>();
        });
    checkpointer_.snapshot();  // recovery floor: the initial weights

    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      ClientConfig cc;
      cc.max_concurrent = spec_.tasks_per_client;
      cc.poll_interval_s = spec_.poll_interval_s;
      cc.preemption.interruptions_per_hour =
          spec_.preemptible ? spec_.interruption_per_hour : 0.0;
      cc.preemption.downtime_s = spec_.preemption_downtime_s;
      cc.availability = spec_.availability;
      cc.retry = spec_.client_retry;
      cc.exec_pool = exec_pool_.get();
      clients_.push_back(std::make_unique<SimClient>(
          i, fleet_[i], cc, engine_, spec_.network, catalog_.server, files_,
          scheduler_, server_, trace_, master_.fork(0xC11E + i),
          [this](const Workunit& unit, ClientId client, ExecContext& exec) {
            return ExecOutcome{executor_.run(pin(unit, client), exec),
                               spec_.work_per_subtask};
          }));
      if (injector_) clients_.back()->set_fault_injector(injector_.get());
    }

    for (const SimTime when : spec_.faults.server_crashes) {
      engine_.schedule_at(when, [this] { crash_server(); });
    }
    if (spec_.metrics_snapshot_period_s > 0.0) {
      server_.enable_metrics_snapshots(
          spec_.metrics_snapshot_period_s,
          [this](SimTime when, const obs::MetricsSnapshot& snap) {
            result_.metric_timeline.push_back(MetricsSample{when, snap});
          });
    }
  }

  /// Seeds epoch 1, starts the fleet and the periodic sweeps, and runs the
  /// engine until the job completes.
  void run() {
    work_gen_.generate_epoch(1);
    for (auto& c : clients_) c->start();
    engine_.schedule(kTimeoutSweepPeriod, [this] { sweep_timeouts(); });
    if (spec_.checkpoint_interval_s > 0.0) {
      engine_.schedule(spec_.checkpoint_interval_s,
                       [this] { checkpoint_tick(); });
    }
    engine_.run();
    VCDL_CHECK(!running_,
               "VcTrainer: simulation drained before job completion");
  }

  /// Account: the totals come from the metrics snapshot, plus the few
  /// objects that keep their own counts.
  TrainResult account() {
    result_.metrics = metrics_.snapshot();
    const auto count = [&snap = result_.metrics](const char* name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    CostLedger ledger;
    for (const InstanceType& instance : fleet_) {
      ledger.add_usage(instance, job_end_time_);
    }
    RunTotals& t = result_.totals;
    t.duration_s = job_end_time_;
    t.cost_standard_usd = ledger.standard_cost_usd();
    t.cost_preemptible_usd = ledger.preemptible_cost_usd();
    t.timeouts = count("scheduler.failure.timeout");
    t.preemptions = count("client.preemptions");
    t.lost_updates = count("store.lost_updates");
    t.store_reads = count("store.reads");
    t.store_writes = count("store.writes");
    t.cache_hits = count("file_server.cache_hits");
    t.bytes_wire = count("file_server.bytes_wire");
    t.bytes_uploaded = count("client.bytes_uploaded");
    t.param_bytes_wire = files_.stats().bytes_delta_wire;
    t.param_bytes_full = files_.stats().bytes_delta_full;
    t.delta_pulls = count("file_server.delta_pulls");
    t.duplicates = count("server.results_duplicate");
    t.parameter_count = in_.template_model.parameter_count();
    t.transfer_failures =
        count("client.transfer_retries") + count("client.transfer_abandoned");
    t.abandoned_subtasks = count("client.transfer_abandoned");
    t.invalid_results = count("scheduler.failure.invalid_result");
    t.server_crashes = count("faults.server_crash");
    t.checkpoint_restores = checkpointer_.stats().restores;
    t.reissued_units = count("scheduler.failure.reissue_lost");
    t.byzantine_attacks = count("faults.byzantine_result");
    t.consensus_quorums = count("consensus.quorum_promoted");
    t.consensus_fallbacks = count("consensus.fallback_promoted");
    t.results_outvoted = count("consensus.results_outvoted");
    t.blend_rejections = count("consensus.blend_rejected");
    t.spot_checks = count("consensus.spot_checks");
    result_.final_params = assimilator_.published_params();
    return std::move(result_);
  }

 private:
  /// Epoch state machine: fires once per assimilated result, after its
  /// store write lands.
  void on_assimilated(std::size_t epoch, double subtask_acc) {
    RunningStats& acc = per_epoch_[epoch];
    acc.add(subtask_acc);
    if (acc.count() < spec_.num_shards || !running_) return;
    // Epoch complete: evaluate the authoritative parameter copy.
    eval_model_.set_flat_params(assimilator_.published_params());
    EpochStats es;
    es.epoch = epoch;
    es.alpha = schedule_->alpha(epoch);
    es.end_time = engine_.now();
    es.mean_subtask_acc = acc.mean();
    es.min_subtask_acc = acc.min();
    es.max_subtask_acc = acc.max();
    es.std_subtask_acc = acc.stddev();
    es.val_acc =
        evaluate_accuracy(eval_model_, in_.data.validation, eval_exec_);
    es.test_acc = evaluate_accuracy(eval_model_, in_.data.test, eval_exec_);
    es.results = acc.count();
    result_.epochs.push_back(es);
    trace_.record(engine_.now(), TraceKind::epoch_done, "work-generator",
                  "epoch " + std::to_string(epoch) + " acc " +
                      std::to_string(es.mean_subtask_acc));
    VCDL_INFO(spec_.label() << " epoch " << epoch << " t="
                            << engine_.now() / 3600.0 << "h mean_acc="
                            << es.mean_subtask_acc);
    const bool reached = es.mean_subtask_acc >= spec_.target_accuracy;
    if (epoch < spec_.max_epochs && !reached) {
      work_gen_.generate_epoch(epoch + 1);
    } else {
      running_ = false;
      job_end_time_ = engine_.now();
      trace_.record(engine_.now(), TraceKind::job_done, "work-generator");
      server_.stop_metrics_snapshots();
      for (auto& c : clients_) c->stop();
    }
  }

  /// The pin step of a client subtask, on the DES thread at exec start.
  PinnedSubtask pin(const Workunit& unit, ClientId client) {
    VCDL_CHECK(unit.shard < in_.shards.count(), "execute: shard out of range");
    // Gradient-age bookkeeping: this subtask's gradient is based on the
    // parameters as of the current commit count.
    assimilator_.note_exec_base(unit.id);
    PinnedSubtask pin{&in_.shards.shards[unit.shard],
                      assimilator_.published_params(), assimilator_.commits(),
                      master_.fork(0xE0E0 + (++subtask_counter_)),
                      std::nullopt};
    if (adversary_ != nullptr && adversary_->is_adversary(client)) {
      pin.tamper = adversary_->draw(unit.id);
    }
    return pin;
  }

  /// Checkpoint replay: reassembles the full vector from the per-shard
  /// snapshot blobs; publish_initial re-slices and republishes every shard.
  void replay_snapshot(const std::vector<Blob>& blobs) {
    std::vector<float> params;
    params.reserve(in_.plan.total());
    for (const Blob& blob : blobs) {
      const std::vector<float> slice = load_params(blob);
      params.insert(params.end(), slice.begin(), slice.end());
    }
    assimilator_.publish_initial(params);
  }

  /// Drives the BOINC deadline-reassignment loop.
  void sweep_timeouts() {
    if (!running_) return;
    for (const auto id : scheduler_.expire_deadlines(engine_.now())) {
      trace_.record(engine_.now(), TraceKind::timeout_reassign, "scheduler",
                    "wu#" + std::to_string(id));
    }
    engine_.schedule(kTimeoutSweepPeriod, [this] { sweep_timeouts(); });
  }

  void checkpoint_tick() {
    if (!running_) return;
    if (checkpointer_.snapshot()) {
      trace_.record(
          engine_.now(), TraceKind::checkpoint_saved, "checkpointer",
          "snapshot #" + std::to_string(checkpointer_.stats().snapshots));
    }
    engine_.schedule(spec_.checkpoint_interval_s,
                     [this] { checkpoint_tick(); });
  }

  /// Injected grid-server crash, recovered server_recovery_s later.
  void crash_server() {
    if (!running_ || !server_.is_up()) return;
    server_.crash();
    engine_.schedule(spec_.faults.server_recovery_s, [this] {
      if (!running_) return;
      if (checkpointer_.restore()) {
        const auto crashes = metrics_.counter("faults.server_crash").value();
        trace_.record(
            engine_.now(), TraceKind::checkpoint_restored, "checkpointer",
            "replayed snapshot after crash #" + std::to_string(crashes));
      }
      server_.restore();
    });
  }

  const ExperimentSpec& spec_;
  const RunInputs& in_;
  TraceLog& trace_;
  obs::Registry& metrics_;
  const Rng master_;
  // One pool shared by every client's training callback and by evaluation:
  // the DES is serial, so only one forward/backward runs at a time and the
  // pool's workers always split that single model's compute. worker_threads
  // == 1 keeps everything on the calling thread — the bit-exact reference.
  const std::unique_ptr<ThreadPool> exec_pool_ =
      spec_.worker_threads != 1
          ? std::make_unique<ThreadPool>(spec_.worker_threads)
          : nullptr;
  ExecContext eval_exec_;
  SimEngine engine_;
  // All time-valued metrics (spans, latency histograms) read the engine's
  // virtual clock for the rest of this run — wall time never leaks into the
  // snapshot, so telemetry replays with the simulation.
  obs::FunctionTimeSource sim_clock_{[this] { return engine_.now(); }};
  obs::ScopedTimeSource time_guard_{metrics_, sim_clock_};
  const std::unique_ptr<KvStore> store_ = make_store(spec_.store);
  const WireMode wire_mode_ = wire_mode_from_name(spec_.wire_codec);
  FileServer files_;
  Scheduler scheduler_;
  // Fault injection: constructed only when the plan injects something, so
  // fault-free runs perform zero extra Rng draws and stay bit-identical.
  const std::unique_ptr<FaultInjector> injector_ =
      spec_.faults.any() ? std::make_unique<FaultInjector>(
                               spec_.faults, master_.fork(0xFA17))
                         : nullptr;
  // Byzantine adversaries (sim/faults.hpp): like the injector, only built
  // when the plan selects someone — honest runs draw nothing from 0xBAD0.
  const std::unique_ptr<AdversaryModel> adversary_ =
      spec_.adversary.any()
          ? std::make_unique<AdversaryModel>(spec_.adversary, spec_.clients,
                                             master_.fork(0xBAD0))
          : nullptr;
  const FleetCatalog catalog_ = table1_catalog();
  const std::vector<InstanceType> fleet_ = make_client_fleet(
      catalog_, spec_.clients, spec_.preemptible, spec_.interruption_per_hour);
  GridServer server_{engine_, scheduler_, trace_, spec_.parameter_servers,
                     &valid_upload};
  WorkGenerator work_gen_{scheduler_, files_, trace_, engine_,
                          {.num_shards = spec_.num_shards,
                           .subtask_timeout_s = spec_.subtask_timeout_s,
                           .replication = spec_.replication,
                           .param_shards = spec_.param_shards}};
  std::map<std::size_t, RunningStats> per_epoch_;  // subtask accuracies
  TrainResult result_;
  bool running_ = true;
  SimTime job_end_time_ = 0.0;
  Model eval_model_ = in_.template_model;  // epoch-end full evaluation
  const std::unique_ptr<AlphaSchedule> schedule_ =
      make_alpha_schedule(spec_.alpha);
  std::vector<std::unique_ptr<SimClient>> clients_;
  VcAsgdAssimilator assimilator_{
      engine_, *store_, files_, server_, *schedule_, in_.template_model,
      in_.data.validation, catalog_.server,
      {.validate_work = spec_.validate_work,
       .validation_subsample = spec_.validation_subsample,
       .wire_mode = wire_mode_,
       .version_ring = spec_.wire_version_ring,
       .blend_outlier_threshold = spec_.blend_outlier_threshold,
       .plan = in_.plan},
      trace_, master_.fork(0xEAA1),
      [this](std::size_t epoch, double acc) { on_assimilated(epoch, acc); }};
  std::uint64_t subtask_counter_ = 0;  // task Rng stream cursor
  Checkpointer checkpointer_{
      *store_, checkpoint_keys(in_.plan),
      [this](const std::vector<Blob>& blobs) { replay_snapshot(blobs); }};
  SubtaskExecutor executor_{in_.template_model, spec_, in_.plan};
};

}  // namespace

Blob encode_upload(WireMode mode, const ShardPlan& plan,
                   std::span<const float> target, std::span<const float> base,
                   std::uint64_t base_version, ExecContext& exec) {
  if (mode == WireMode::full) return save_params(target);
  const auto encode = [&](std::span<const float> b, std::span<const float> t) {
    return mode == WireMode::delta ? encode_params_delta(b, t, base_version)
                                   : encode_params_q8(b, t, base_version);
  };
  if (plan.shards() == 1) return encode(base, target);
  std::vector<Blob> parts(plan.shards());
  const auto encode_shards = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      parts[s] = encode(plan.view(base, s), plan.view(target, s));
    }
  };
  if (exec.pool != nullptr) {
    exec.pool->parallel_for(0, parts.size(), encode_shards);
  } else {
    encode_shards(0, parts.size());
  }
  return pack_shard_frames(parts);
}

SubtaskExecutor::SubtaskExecutor(Model replica, const ExperimentSpec& spec,
                                 ShardPlan plan)
    : replica_(std::move(replica)), spec_(spec),
      wire_mode_(wire_mode_from_name(spec.wire_codec)),
      plan_(std::move(plan)) {}

Blob SubtaskExecutor::run(const PinnedSubtask& pin, ExecContext& exec) {
  replica_.set_flat_params(pin.params);
  auto optimizer = make_optimizer(spec_.optimizer, spec_.learning_rate);
  Rng rng = pin.rng;
  std::vector<std::size_t> order(pin.shard->size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  train_local(replica_, *optimizer, *pin.shard, order, rng, spec_.local_epochs,
              spec_.batch_size, exec);
  std::vector<float> trained = replica_.flat_params();
  // The attack tampers with the trained weights *before* encoding, so the
  // payload passes every checksum and the validator — only semantic
  // defenses (consensus, the blend guard) can catch it.
  if (pin.tamper) pin.tamper->apply(trained);
  return encode_upload(wire_mode_, plan_, trained, pin.params,
                       pin.base_version, exec);
}

VcTrainer::VcTrainer(ExperimentSpec spec) : spec_(std::move(spec)) {
  VCDL_CHECK(spec_.parameter_servers >= 1, "VcTrainer: Pn >= 1");
  VCDL_CHECK(spec_.clients >= 1, "VcTrainer: Cn >= 1");
  VCDL_CHECK(spec_.tasks_per_client >= 1, "VcTrainer: Tn >= 1");
  VCDL_CHECK(spec_.max_epochs >= 1, "VcTrainer: max_epochs >= 1");
  VCDL_CHECK(spec_.batch_size >= 1, "VcTrainer: batch_size >= 1");
  VCDL_CHECK(spec_.param_shards >= 1, "VcTrainer: param_shards >= 1");
}

TrainResult VcTrainer::run() {
  trace_.clear();
  trace_.set_enabled(spec_.trace);
  // The run owns its metrics registry; every component below and every pool
  // chunk this thread dispatches records into it. Its snapshot covers exactly
  // this run, so same-seed snapshots are byte-identical.
  obs::Registry metrics;
  const obs::ScopedRegistry metrics_scope(metrics);
  const Rng master(spec_.seed);
  const RunInputs inputs = build_inputs(spec_);
  WiredRun wired(spec_, inputs, trace_, metrics, master);
  wired.run();
  return wired.account();
}

TrainResult run_experiment(const ExperimentSpec& spec) {
  return VcTrainer(spec).run();
}

std::vector<TrainResult> run_experiments(
    const std::vector<ExperimentSpec>& specs) {
  std::vector<TrainResult> results(specs.size());
  std::vector<std::exception_ptr> errors(specs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      try {
        results[i] = run_experiment(specs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(),
                               specs.size()));
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace vcdl
