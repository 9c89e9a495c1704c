// End-to-end VC-ASGD training driver.
//
// VcTrainer assembles the full system of Fig. 1 — synthetic dataset + shards,
// model, parameter store, file server, scheduler, grid server with Pn
// parameter-server workers, Cn (possibly preemptible) client daemons — runs
// the job in virtual time, and returns the per-epoch accuracy/time series
// the paper's figures plot. run() only orchestrates three phases: build (the
// run's inputs from the spec alone: data, shards, template model, initial
// parameters, ShardPlan), wire (every component, constructed and configured
// in the fixed order the DES event order and every Rng stream depend on;
// then the engine runs the job) and account (RunTotals from the metrics
// snapshot plus the few objects that keep their own counts).
#pragma once

#include <optional>

#include "common/wire_codec.hpp"
#include "core/job.hpp"
#include "core/shard_plan.hpp"
#include "sim/trace.hpp"
#include "tensor/exec_context.hpp"

namespace vcdl {

class VcTrainer {
 public:
  explicit VcTrainer(ExperimentSpec spec);

  /// Runs the job to completion (target accuracy or max_epochs).
  /// Deterministic in spec.seed.
  TrainResult run();

  /// Trace of the last run (populated when spec.trace is true).
  const TraceLog& trace() const { return trace_; }

 private:
  ExperimentSpec spec_;
  TraceLog trace_;
};

/// Convenience wrapper used by benches/examples.
TrainResult run_experiment(const ExperimentSpec& spec);

// --- Subtask executor --------------------------------------------------------
//
// Each client runs Tn subtasks at once, each training its own copy of the
// model from the parameters it downloaded (§III). A subtask runs in two
// steps. Pin, on the DES thread at the virtual exec-start instant, reads
// everything the upload depends on into a PinnedSubtask. Run is pure: it
// trains the executor's own replica from the pinned inputs and encodes the
// upload, so two executors given the same PinnedSubtask return
// byte-identical payloads, whatever their replicas held or ran before.

/// Everything one subtask's upload depends on, fixed when it starts.
struct PinnedSubtask {
  const Dataset* shard = nullptr;  // training shard (immutable for the run)
  std::vector<float> params;       // published copy the subtask trains from
  std::uint64_t base_version = 0;  // commit count of `params`: upload base
  Rng rng;                         // task stream (minibatch shuffles)
  std::optional<Tamper> tamper;    // byzantine attack drawn for this result
};

/// Encodes one upload of `target` with one encode call: `full` → a
/// parameter blob; a one-shard plan → one bare wire frame against `base`;
/// otherwise one frame per plane shard (against its slice of `base`, encoded
/// on `exec`'s pool, landing by shard index) packed into a shard bundle.
Blob encode_upload(WireMode mode, const ShardPlan& plan,
                   std::span<const float> target, std::span<const float> base,
                   std::uint64_t base_version, ExecContext& exec);

class SubtaskExecutor {
 public:
  /// Trains with the spec's optimizer, learning_rate, local_epochs and
  /// batch_size, and uploads in its wire_codec over `plan`.
  SubtaskExecutor(Model replica, const ExperimentSpec& spec, ShardPlan plan);

  /// Trains the replica from `pin.params` with a fresh optimizer, applies
  /// `pin.tamper`, and encodes the upload against `pin.params`.
  Blob run(const PinnedSubtask& pin, ExecContext& exec);

 private:
  Model replica_;
  const ExperimentSpec& spec_;
  const WireMode wire_mode_;
  const ShardPlan plan_;
};

}  // namespace vcdl
