// Figure 4 — effect of the VC-ASGD hyperparameter α at P3C3T4.
//
// Runs α ∈ {0.7, 0.95, 0.999, Var} and prints each series with the min/max
// accuracy band across the 50 subtasks of every epoch (the paper's error
// bars). Expected shape (§IV-C):
//   * α = 0.7 rises fastest early but plateaus; α = 0.95 overtakes it in
//     later epochs;
//   * α = 0.999 (the EASGD-with-moving-rate-0.001 analogue) barely trains;
//   * accuracy spread ordering: 0.7 > 0.95 > Var > 0.999;
//   * Var (α_e = e/(e+1)) trains faster than constant 0.95 with a smaller
//     spread than either constant.
//
// Writes the full series to vcdl_fig4_series.csv so bench_fig5_alpha_zoom
// can print its zoomed windows without re-running.
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 4 — VC-ASGD alpha sweep at P3C3T4",
                      "Fig. 4 (alpha in {0.7, 0.95, 0.999, var})");

  const char* alphas[] = {"0.7", "0.95", "0.999", "var"};
  std::vector<ExperimentSpec> specs;
  for (const char* alpha : alphas) {
    ExperimentSpec spec = bench::base_spec(cfg, /*default_epochs=*/16);
    spec.parameter_servers = 3;
    spec.clients = 3;
    spec.tasks_per_client = 4;
    spec.alpha = alpha;
    specs.push_back(spec);
  }
  const std::vector<TrainResult> results = run_experiments(specs);
  Table table = bench::epoch_series_table();
  for (const TrainResult& r : results) {
    bench::print_run_summary(r);
    bench::add_epoch_rows(table, "alpha=" + r.spec.alpha, r);
  }
  std::cout << "\n";
  table.print(std::cout);

  // Spread summary (the paper's error-bar comparison).
  std::cout << "\nMean accuracy spread (max-min across subtasks, averaged over"
               " the last half of training):\n";
  for (const auto& r : results) {
    double spread = 0.0;
    std::size_t n = 0;
    for (std::size_t i = r.epochs.size() / 2; i < r.epochs.size(); ++i) {
      spread += r.epochs[i].max_subtask_acc - r.epochs[i].min_subtask_acc;
      ++n;
    }
    std::cout << "  alpha=" << r.spec.alpha << ": "
              << Table::fmt(spread / static_cast<double>(n), 3) << "\n";
  }

  const std::string csv_path =
      cfg.get_string("csv", "vcdl_fig4_series.csv");
  std::ofstream csv(csv_path);
  table.print_csv(csv);
  std::cout << "\nseries written to " << csv_path << "\n";
  bench::write_json(cfg, "fig4", results);
  return 0;
}
