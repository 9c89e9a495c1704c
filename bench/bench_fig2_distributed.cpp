// Figure 2 — effect of distributed training at fixed α = 0.95.
//
// Runs the paper's four configurations (P1C3T2, P1C3T8, P3C3T8, P5C5T2) and
// prints the accuracy-vs-cumulative-time series of each. Expected shape
// (§IV-B): all configurations converge toward the same accuracy; they differ
// in training time; P5C5T2 is the fastest of the four.
#include <algorithm>
#include <iostream>
#include <span>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 2 — accuracy vs cumulative training time",
                      "Fig. 2 (P1C3T2, P1C3T8, P3C3T8, P5C5T2; alpha = 0.95)");

  // One sweep: the four Fig. 2 shapes, then P3C3T8 delta over {1, 2, 4, 8}
  // parameter shards. The codec comparison reuses the P3C3T8 shape (full
  // codec) and the one-shard delta run: the same specs.
  const auto p_c_t = [&](std::size_t p, std::size_t c, std::size_t t) {
    ExperimentSpec spec = bench::base_spec(cfg);
    spec.parameter_servers = p;
    spec.clients = c;
    spec.tasks_per_client = t;
    spec.alpha = "0.95";
    return spec;
  };
  std::vector<ExperimentSpec> specs = {p_c_t(1, 3, 2), p_c_t(1, 3, 8),
                                       p_c_t(3, 3, 8), p_c_t(5, 5, 2)};
  for (const std::size_t shards : {1, 2, 4, 8}) {
    specs.push_back(p_c_t(3, 3, 8));
    specs.back().wire_codec = "delta";
    specs.back().param_shards = shards;
  }
  const std::vector<TrainResult> runs = run_experiments(specs);
  const std::span<const TrainResult> results = std::span(runs).first(4);
  const std::span<const TrainResult> shard_runs = std::span(runs).subspan(4);

  Table table = bench::epoch_series_table();
  for (const TrainResult& r : results) {
    bench::print_run_summary(r);
    bench::add_epoch_rows(table, r.spec.label(), r);
  }
  std::cout << "\n";
  table.print(std::cout);

  // Shape check: time-to-final-epoch ordering, equal accuracy band.
  std::cout << "\nTime to " << results[0].epochs.size() << " epochs:\n";
  for (const auto& r : results) {
    std::cout << "  " << r.spec.label() << ": "
              << Table::fmt(r.totals.duration_s / 3600.0, 2) << " h (final acc "
              << Table::fmt(r.final_epoch().mean_subtask_acc, 3) << ")\n";
  }

  // Wire codec (docs/SIMULATION.md §4b): the same P3C3T8 run with the
  // lossless delta codec — parameter pulls billed as version deltas instead
  // of full blobs.
  std::cout << "\nParameter-pull traffic, full blobs vs lossless deltas"
               " (P3C3T8):\n";
  Table codec_tbl({"codec", "total wire MB", "param pull MB", "full-equiv MB",
                   "pull savings", "delta pulls", "final acc"});
  const double mb = 1024.0 * 1024.0;
  for (const TrainResult* codec_run : {&results[2], &shard_runs[0]}) {
    const TrainResult& r = *codec_run;
    const bool has_split = r.totals.param_bytes_full > 0;
    const double wire = static_cast<double>(r.totals.param_bytes_wire);
    const double full = static_cast<double>(r.totals.param_bytes_full);
    codec_tbl.add_row(
        {r.spec.wire_codec,
         Table::fmt(static_cast<double>(r.totals.bytes_wire) / mb, 2),
         has_split ? Table::fmt(wire / mb, 2) : "-",
         has_split ? Table::fmt(full / mb, 2) : "-",
         has_split ? Table::fmt(full / std::max(wire, 1.0), 1) + "x" : "-",
         Table::fmt(r.totals.delta_pulls),
         Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  codec_tbl.print(std::cout);

  // Sharded parameter plane (core/shard_plan.hpp): the same P3C3T8 delta run
  // with the parameter vector sliced over {1, 2, 4, 8} per-shard planes —
  // shard files pulled in parallel, uploads as per-shard frame bundles.
  std::cout << "\nSharded parameter plane sweep (P3C3T8, delta codec):\n";
  Table shard_tbl({"shards", "hours", "final acc", "param pull MB",
                   "full-equiv MB", "delta pulls"});
  for (const TrainResult& r : shard_runs) {
    shard_tbl.add_row(
        {Table::fmt(r.spec.param_shards),
         Table::fmt(r.totals.duration_s / 3600.0, 2),
         Table::fmt(r.final_epoch().mean_subtask_acc, 3),
         Table::fmt(static_cast<double>(r.totals.param_bytes_wire) / mb, 2),
         Table::fmt(static_cast<double>(r.totals.param_bytes_full) / mb, 2),
         Table::fmt(r.totals.delta_pulls)});
  }
  shard_tbl.print(std::cout);
  bench::write_json(cfg, "fig2", runs);
  return 0;
}
