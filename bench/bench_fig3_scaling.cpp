// Figure 3 — training time vs number of parameter servers (Pn) and number of
// simultaneous subtasks per client (Tn), at α = 0.95.
//
// Runs the paper's 3×3 grid {P1C3, P3C3, P5C5} × {T2, T4, T8} for a fixed
// number of epochs and reports the total training time of each cell plus the
// 40-epoch extrapolation (the paper's y-axis scale). Expected shape (§IV-B):
//   * P1C3: time improves T2→T4 (clients were underused), regresses T4→T8
//     (one parameter server cannot absorb the result bursts);
//   * P3C3T8 is markedly faster than P1C3T8 (more PS workers);
//   * P5C5: time grows monotonically T2→T8 (server-side imbalance).
#include <iostream>
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 3 — Pn / Tn effect on training time",
                      "Fig. 3 ({P1C3,P3C3,P5C5} x {T2,T4,T8}; alpha = 0.95)");

  struct Cluster {
    std::size_t p, c;
  };
  const Cluster clusters[] = {{1, 3}, {3, 3}, {5, 5}};
  const std::size_t tns[] = {2, 4, 8};
  const std::size_t shard_counts[] = {1, 2, 4, 8};

  // One sweep: the 3x3 grid cluster-major, then P5C5T2 delta over
  // {1, 2, 4, 8} parameter shards.
  const auto p_c_t = [&](std::size_t p, std::size_t c, std::size_t t) {
    ExperimentSpec spec = bench::base_spec(cfg, /*default_epochs=*/6);
    spec.parameter_servers = p;
    spec.clients = c;
    spec.tasks_per_client = t;
    spec.alpha = "0.95";
    return spec;
  };
  std::vector<ExperimentSpec> specs;
  for (const Cluster& cl : clusters) {
    for (const std::size_t tn : tns) specs.push_back(p_c_t(cl.p, cl.c, tn));
  }
  for (const std::size_t shards : shard_counts) {
    specs.push_back(p_c_t(5, 5, 2));
    specs.back().wire_codec = "delta";
    specs.back().param_shards = shards;
  }
  const std::vector<TrainResult> runs = run_experiments(specs);
  const auto hours_of = [](const TrainResult& r) {
    return r.totals.duration_s / 3600.0;
  };
  const auto hours40_of = [&](const TrainResult& r) {
    return hours_of(r) / static_cast<double>(r.epochs.size()) * 40.0;
  };

  Table table({"config", "T2 hours", "T4 hours", "T8 hours",
               "T2 (40-epoch est.)", "T4 (40-epoch est.)", "T8 (40-epoch est.)"});
  const TrainResult* cell = runs.data();
  for (const Cluster& cl : clusters) {
    for (std::size_t t = 0; t < std::size(tns); ++t) {
      bench::print_run_summary(cell[t]);
    }
    table.add_row({"P" + std::to_string(cl.p) + "C" + std::to_string(cl.c),
                   Table::fmt(hours_of(cell[0]), 2),
                   Table::fmt(hours_of(cell[1]), 2),
                   Table::fmt(hours_of(cell[2]), 2),
                   Table::fmt(hours40_of(cell[0]), 1),
                   Table::fmt(hours40_of(cell[1]), 1),
                   Table::fmt(hours40_of(cell[2]), 1)});
    cell += std::size(tns);
  }
  std::cout << "\n";
  table.print(std::cout);

  // Sharded parameter plane (core/shard_plan.hpp): the paper's fastest cell
  // (P5C5T2) at param_shards ∈ {1, 2, 4, 8} under the delta codec.
  std::cout << "\nSharded parameter plane sweep (P5C5T2, delta codec):\n";
  Table shard_tbl({"shards", "hours", "40-epoch est.", "final acc"});
  for (const std::size_t shards : shard_counts) {
    const TrainResult& r = *cell++;
    bench::print_run_summary(r);
    shard_tbl.add_row({Table::fmt(shards), Table::fmt(hours_of(r), 2),
                       Table::fmt(hours40_of(r), 1),
                       Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  shard_tbl.print(std::cout);
  bench::write_json(cfg, "fig3", runs);
  return 0;
}
