// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench accepts `key=value` overrides (epochs=20 seed=3 ...) so the
// default fast preset can be scaled up toward the paper's full 40-epoch runs.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "core/trainer.hpp"
#include "tensor/ops.hpp"

namespace vcdl::bench {

/// The repo-wide experiment preset: paper topology (50 shards, Table I
/// fleet), substitution-scale data/model, fast default epoch budget.
inline ExperimentSpec base_spec(const Config& cfg,
                                std::size_t default_epochs = 10) {
  ExperimentSpec spec;
  spec.max_epochs = static_cast<std::size_t>(
      cfg.get_int("epochs", static_cast<std::int64_t>(default_epochs)));
  spec.num_shards = static_cast<std::size_t>(cfg.get_int("num_shards", 50));
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  spec.learning_rate = cfg.get_double("learning_rate", spec.learning_rate);
  spec.data.difficulty = cfg.get_double("difficulty", spec.data.difficulty);
  spec.store = cfg.get_string("store", spec.store);
  return spec;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "================================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "================================================================\n";
}

/// Epoch-series table in the layout the paper's figures plot.
inline Table epoch_series_table() {
  return Table({"series", "epoch", "alpha", "hours", "mean_acc", "min_acc",
                "max_acc", "std_acc", "val_acc", "test_acc"});
}

inline void add_epoch_rows(Table& table, const std::string& series,
                           const TrainResult& result) {
  for (const auto& e : result.epochs) {
    table.add_row({series, Table::fmt(e.epoch), Table::fmt(e.alpha, 3),
                   Table::fmt(e.end_time / 3600.0, 3),
                   Table::fmt(e.mean_subtask_acc), Table::fmt(e.min_subtask_acc),
                   Table::fmt(e.max_subtask_acc), Table::fmt(e.std_subtask_acc),
                   Table::fmt(e.val_acc), Table::fmt(e.test_acc)});
  }
}

/// Bench-specific members of BENCH_<bench>.json (parameters, timing rows),
/// written after `runs`.
using JsonFields = std::function<void(JsonWriter&)>;

inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(": ");
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The one JSON output of every bench: writes BENCH_<bench>.json (or the
/// `out=` path) holding schema_version 2, the host block (cpu, nproc, SIMD
/// tier, build type, configure-time commit), one entry per run (to_json's
/// members plus the run's metrics snapshot), then `fields`.
inline void write_json(const Config& cfg, const std::string& bench,
                       const std::vector<TrainResult>& runs,
                       const JsonFields& fields = {}) {
  const std::string path = cfg.get_string("out", "BENCH_" + bench + ".json");
  std::ofstream out(path);
  JsonWriter w(out, /*indent=*/2);
  w.open_object();
  w.field("schema_version", std::uint64_t{2});
  w.field("bench", bench);
  w.open_object("host");
  w.field("cpu", cpu_model());
  w.field("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  w.field("simd", ops::simd_tier_name(ops::active_simd_tier()));
  w.field("build_type", VCDL_BUILD_TYPE);
  w.field("commit", VCDL_COMMIT);
  w.close_object();
  w.open_array("runs");
  for (const TrainResult& r : runs) {
    w.open_object();
    write_run(w, r);
    w.raw("metrics", r.metrics.to_json());
    w.close_object();
  }
  w.close_array();
  if (fields) fields(w);
  w.close_object();
  out << "\n";
  VCDL_CHECK(out.good(), "bench::write_json: cannot write " + path);
  std::cout << "wrote " << path << "\n";
}

/// `key`: {reps, min, median, max} of one timed row's samples.
inline void write_spread(JsonWriter& w, const char* key,
                         const std::vector<double>& samples) {
  w.open_object(key);
  w.field("reps", std::uint64_t{samples.size()});
  w.field("min", quantile(samples, 0.0));
  w.field("median", quantile(samples, 0.5));
  w.field("max", quantile(samples, 1.0));
  w.close_object();
}

inline void print_run_summary(const TrainResult& r) {
  std::cout << "  " << r.spec.label() << " alpha=" << r.spec.alpha
            << " store=" << r.spec.store << ": " << r.epochs.size()
            << " epochs in " << Table::fmt(r.totals.duration_s / 3600.0, 2)
            << " virtual hours, final mean_acc "
            << Table::fmt(r.final_epoch().mean_subtask_acc) << ", lost updates "
            << r.totals.lost_updates << "/" << r.totals.store_writes
            << ", timeouts " << r.totals.timeouts << "\n";
}

}  // namespace vcdl::bench
