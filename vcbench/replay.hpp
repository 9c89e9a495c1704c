// Shared pieces of the vcbench benchmark: the job inputs a training run
// builds before its first event, and the traced layer replay.
//
// The replay runs outside the simulation. It re-issues, module by module,
// the calls one untraced VcTrainer run made — as many times as that run's
// deterministic counters say it made them — and times each call from here,
// with the program itself left untouched. See README.md for the metric list.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "core/job.hpp"
#include "data/shards.hpp"
#include "nn/model.hpp"

namespace vcbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What VcTrainer::run() builds before its first event: data, shards and
/// their encoded files, the template model and its architecture blob.
struct JobInputs {
  vcdl::SyntheticData data;
  vcdl::ShardSet shards;
  std::vector<vcdl::Blob> shard_blobs;
  vcdl::Model model;
  vcdl::Blob arch;
  double synth_s = 0.0;   // data synthesis
  double shards_s = 0.0;  // shard split + encode
  double model_s = 0.0;   // model build + architecture blob
};

/// Builds the inputs with the same public calls and seeds run() uses.
JobInputs build_inputs(const vcdl::ExperimentSpec& spec);

struct ReplayReport {
  /// The per-layer metrics named in BENCHMARK.json, in a fixed order.
  std::vector<Metric> metrics;
  /// Per top-level layer forward/backward time. The layer list depends on
  /// the workload's model, so these are printed but not in BENCHMARK.json.
  std::vector<Metric> layer_table;
  /// Replayed seconds per module, summed into attributed_share.
  std::vector<Metric> seconds;
  /// Replay counts that differ from the run's counters (empty = consistent).
  std::vector<std::string> mismatches;
};

/// Replays the job `run` (an untraced run of `spec` that took `run_wall_s`
/// host seconds, set-up included). `drift` skips one validation, which the
/// self-consistency check must report (the self-test uses it).
ReplayReport replay_layers(const vcdl::ExperimentSpec& spec,
                           const vcdl::TrainResult& run, double run_wall_s,
                           bool drift);

}  // namespace vcbench
