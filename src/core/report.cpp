#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/json_writer.hpp"

namespace vcdl {

void write_run(JsonWriter& w, const TrainResult& result) {
  const ExperimentSpec& spec = result.spec;
  w.field("label", spec.label());
  w.field("alpha", spec.alpha);
  w.field("store", spec.store);
  w.field("num_shards", spec.num_shards);
  w.field("seed", static_cast<std::uint64_t>(spec.seed));
  w.field("wire_codec", spec.wire_codec);
  w.field("param_shards", spec.param_shards);
  w.field("shard_policy", shard_policy_name(spec.shard_policy));
  w.field("replication", spec.replication);
  w.field("interruption_per_hour",
          spec.preemptible ? spec.interruption_per_hour : 0.0);
  w.field("adversary_fraction", spec.adversary.fraction);
  w.field("consensus", spec.consensus.enabled);
  w.open_array("epochs");
  for (const auto& e : result.epochs) {
    w.open_object();
    w.field("epoch", e.epoch);
    w.field("alpha", e.alpha);
    w.field("hours", e.end_time / 3600.0);
    w.field("mean_acc", e.mean_subtask_acc);
    w.field("min_acc", e.min_subtask_acc);
    w.field("max_acc", e.max_subtask_acc);
    w.field("std_acc", e.std_subtask_acc);
    w.field("val_acc", e.val_acc);
    w.field("test_acc", e.test_acc);
    w.close_object();
  }
  w.close_array();
  const auto& t = result.totals;
  w.field("duration_hours", t.duration_s / 3600.0);
  w.field("cost_standard_usd", t.cost_standard_usd);
  w.field("cost_preemptible_usd", t.cost_preemptible_usd);
  w.field("timeouts", t.timeouts);
  w.field("preemptions", t.preemptions);
  w.field("lost_updates", t.lost_updates);
  w.field("store_reads", t.store_reads);
  w.field("store_writes", t.store_writes);
  w.field("cache_hits", t.cache_hits);
  w.field("bytes_wire", t.bytes_wire);
  w.field("bytes_uploaded", t.bytes_uploaded);
  w.field("param_bytes_wire", t.param_bytes_wire);
  w.field("param_bytes_full", t.param_bytes_full);
  w.field("delta_pulls", t.delta_pulls);
  w.field("duplicates", t.duplicates);
  w.field("parameter_count", t.parameter_count);
  w.field("transfer_failures", t.transfer_failures);
  w.field("abandoned_subtasks", t.abandoned_subtasks);
  w.field("invalid_results", t.invalid_results);
  w.field("server_crashes", t.server_crashes);
  w.field("checkpoint_restores", t.checkpoint_restores);
  w.field("reissued_units", t.reissued_units);
  w.field("byzantine_attacks", t.byzantine_attacks);
  w.field("consensus_quorums", t.consensus_quorums);
  w.field("consensus_fallbacks", t.consensus_fallbacks);
  w.field("results_outvoted", t.results_outvoted);
  w.field("blend_rejections", t.blend_rejections);
  w.field("spot_checks", t.spot_checks);
}

std::string to_json(const TrainResult& result) {
  std::ostringstream os;
  JsonWriter w(os);
  w.open_object();
  write_run(w, result);
  w.close_object();
  return os.str();
}

void write_epochs_csv(std::ostream& os, const TrainResult& result,
                      const std::string& series_name) {
  os << "series,epoch,alpha,hours,mean_acc,min_acc,max_acc,std_acc,val_acc,"
        "test_acc\n";
  os << std::setprecision(8);
  for (const auto& e : result.epochs) {
    os << series_name << ',' << e.epoch << ',' << e.alpha << ','
       << e.end_time / 3600.0 << ',' << e.mean_subtask_acc << ','
       << e.min_subtask_acc << ',' << e.max_subtask_acc << ','
       << e.std_subtask_acc << ',' << e.val_acc << ',' << e.test_acc << '\n';
  }
}

}  // namespace vcdl
