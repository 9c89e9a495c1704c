// Chaos benchmark — time-to-accuracy degradation vs fault rate.
//
// Sweeps the transfer-fault rate (with proportional corruption) over the
// same training job and measures how far the recovery machinery lets the
// platform bend before it breaks: virtual hours to completion, slowdown vs
// the fault-free run, retries/abandonments/timeouts paid, and final
// accuracy. A second sweep isolates grid-server crash frequency with
// checkpoint replay. The robustness claim is the paper's (§II, §III-B):
// a VC-like platform keeps producing on unreliable infrastructure.
#include <iostream>
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Chaos — fault rate vs time-to-accuracy",
                      "robustness of the §III grid stack under injected faults");

  ExperimentSpec p3c4t2 = bench::base_spec(cfg, /*default_epochs=*/4);
  p3c4t2.parameter_servers = 3;
  p3c4t2.clients = 4;
  p3c4t2.tasks_per_client = 2;
  p3c4t2.num_shards = static_cast<std::size_t>(cfg.get_int("num_shards", 16));
  // Part 2's crash times are even fractions of its fault-free duration, so
  // its crash-free run joins the part 1 sweep and the crash runs follow.
  const auto crash_spec = [&](int n_crashes, SimTime crash_base_s) {
    ExperimentSpec spec = p3c4t2;
    for (int i = 1; i <= n_crashes; ++i) {
      spec.faults.server_crashes.push_back(crash_base_s * i / (n_crashes + 1));
    }
    spec.faults.server_recovery_s = 60.0;
    spec.checkpoint_interval_s = 120.0;
    return spec;
  };
  const double rates[] = {0.0, 0.05, 0.10, 0.20, 0.30};
  std::vector<ExperimentSpec> specs;
  for (const double rate : rates) {
    ExperimentSpec spec = p3c4t2;
    spec.faults.download.drop_prob = rate;
    spec.faults.upload.drop_prob = rate;
    spec.faults.download.stall_prob = rate / 2.0;
    spec.faults.corruption_prob = rate / 5.0;
    spec.client_retry.base_backoff_s = 2.0;
    specs.push_back(spec);
  }
  specs.push_back(crash_spec(0, 0.0));
  std::vector<TrainResult> runs = run_experiments(specs);
  const double crash_base_s = runs.back().totals.duration_s;
  for (TrainResult& r : run_experiments({crash_spec(1, crash_base_s),
                                         crash_spec(2, crash_base_s),
                                         crash_spec(4, crash_base_s)})) {
    runs.push_back(std::move(r));
  }

  // Part 1: transfer-fault sweep.
  std::cout << "Transfer faults (drop rate swept; corruption = rate/5; "
               "P3C4T2):\n";
  Table sweep({"fault rate", "hours", "slowdown", "xfer fails", "abandoned",
               "invalid", "timeouts", "final acc"});
  const double baseline_h = runs[0].totals.duration_s / 3600.0;
  const double baseline_acc = runs[0].final_epoch().mean_subtask_acc;
  for (std::size_t i = 0; i < std::size(rates); ++i) {
    const TrainResult& r = runs[i];
    const double hours = r.totals.duration_s / 3600.0;
    sweep.add_row({Table::fmt(rates[i], 2), Table::fmt(hours, 2),
                   Table::fmt(hours / baseline_h, 2) + "x",
                   Table::fmt(r.totals.transfer_failures),
                   Table::fmt(r.totals.abandoned_subtasks),
                   Table::fmt(r.totals.invalid_results),
                   Table::fmt(r.totals.timeouts),
                   Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  sweep.print(std::cout);
  std::cout << "(accuracy should stay near the fault-free "
            << Table::fmt(baseline_acc, 3)
            << " while hours climb with the fault rate — faults cost time, "
               "not convergence)\n\n";

  // Part 2: grid-server crash sweep with checkpoint replay. Crash times are
  // placed at even fractions of the measured fault-free duration so the sweep
  // stays meaningful at any epochs=/num_shards= override.
  std::cout << "Grid-server crashes (recovery 60 s, checkpoint every 120 s):\n";
  Table crashes({"crashes", "hours", "slowdown", "reissued units",
                 "ckpt restores", "final acc"});
  for (std::size_t i = std::size(rates); i < runs.size(); ++i) {
    const TrainResult& r = runs[i];
    const double hours = r.totals.duration_s / 3600.0;
    crashes.add_row({Table::fmt(r.totals.server_crashes), Table::fmt(hours, 2),
                     Table::fmt(hours / (crash_base_s / 3600.0), 2) + "x",
                     Table::fmt(r.totals.reissued_units),
                     Table::fmt(r.totals.checkpoint_restores),
                     Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  crashes.print(std::cout);
  std::cout << "(each crash rewinds to the last checkpoint and re-runs lost "
               "units; the job completes every time)\n";
  bench::write_json(cfg, "chaos", runs);
  return 0;
}
