// Hot-path throughput — training steps/sec vs worker-pool width.
//
// Measures the ExecContext-threaded forward/backward path (DESIGN.md
// "Execution & threading model") on a CIFAR-scale resnet_lite, sweeping the
// per-client pool over {1, 2, 4, 8} threads. Thread count 1 uses no pool at
// all — it is the serial bit-exact reference path. Writes BENCH_hotpath.json
// (bench::write_json, consumed by EXPERIMENTS.md) in the working directory.
//
// The sweep is capped at the host's hardware threads by default: a width
// beyond the core count measures scheduler context-switching, not scaling.
// Pass oversub=1 to include the over-wide rows anyway; they are marked
// "oversubscribed": true in the JSON so downstream readers can never mistake
// them for a scaling regression.
//
// Overrides: batch=32 steps=20 warmup=3 base_filters=16 blocks=2 image=32
//            oversub=0 smoke=0
//
// Every width's model and pool is built and warmed up first; each of kReps
// rounds then times one loop of `steps` steps per width, round-robin, so a
// slow spell of the host hits every width alike. A width reports its fastest
// loop; the JSON also carries the min/median/max spread of its loops.
//
// smoke=1 shrinks the job to seconds and exits nonzero if the pooled path is
// slower than serial at the widest non-oversubscribed width — the CI guard
// against reintroducing a thread-scaling regression (ci/sanitize.sh).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/local_sgd.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "tensor/exec_context.hpp"
#include "tensor/ops.hpp"

namespace {

// Timed rounds; each width runs one loop per round and reports its fastest.
constexpr std::size_t kReps = 5;

struct Width {
  std::size_t threads = 1;
  bool oversubscribed = false;
  vcdl::Model model;
  std::unique_ptr<vcdl::Optimizer> optimizer;
  std::unique_ptr<vcdl::ThreadPool> pool;
  vcdl::ExecContext exec;
  std::vector<double> loop_s;  // one timed loop per round
  double steps_per_sec = 0.0;  // from the fastest loop
  double speedup_vs_1 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const bool oversub = cfg.get_bool("oversub", false);
  bench::print_header("Hot-path throughput — steps/sec vs pool width",
                      "execution-context layer (not a paper figure)");

  // Smoke mode: CI-sized job. Small enough to finish in seconds under a
  // sanitizer, big enough that the pooled path's win/loss is not noise.
  const auto batch =
      static_cast<std::size_t>(cfg.get_int("batch", smoke ? 16 : 32));
  const auto steps =
      static_cast<std::size_t>(cfg.get_int("steps", smoke ? 4 : 20));
  const auto warmup =
      static_cast<std::size_t>(cfg.get_int("warmup", smoke ? 1 : 3));
  const auto image =
      static_cast<std::size_t>(cfg.get_int("image", smoke ? 16 : 32));

  ResNetLiteSpec spec;
  spec.channels = 3;
  spec.height = image;
  spec.width = image;
  spec.base_filters =
      static_cast<std::size_t>(cfg.get_int("base_filters", smoke ? 8 : 16));
  spec.blocks = static_cast<std::size_t>(cfg.get_int("blocks", smoke ? 1 : 2));

  // Fixed input batch: contents don't matter for throughput, determinism does.
  Rng rng(7);
  const Tensor x =
      Tensor::randn(Shape{batch, spec.channels, spec.height, spec.width}, rng);
  std::vector<std::uint16_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    labels[i] = static_cast<std::uint16_t>(i % spec.classes);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::unique_ptr<Width>> widths;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const bool over = threads > hw;
    if (over && !oversub) continue;
    Width& w = *widths.emplace_back(std::make_unique<Width>());
    w.threads = threads;
    w.oversubscribed = over;
    w.model = make_resnet_lite(spec, /*seed=*/42);
    w.optimizer = make_optimizer("sgd", 0.01);
    if (threads > 1) w.pool = std::make_unique<ThreadPool>(threads);
    w.exec.pool = w.pool.get();
  }
  const auto step = [&](Width& w) {
    train_step(w.model, x, labels, w.exec);
    w.optimizer->step(w.model);
  };
  for (auto& w : widths) {
    for (std::size_t i = 0; i < warmup; ++i) step(*w);
  }
  // Scope the wall-clock span telemetry (exec.gemm_s etc.) to the timed
  // rounds; exported in BENCH_hotpath.json below.
  obs::registry().reset_values();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (auto& w : widths) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < steps; ++i) step(*w);
      const auto t1 = std::chrono::steady_clock::now();
      w->loop_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  for (auto& w : widths) {
    w->steps_per_sec = static_cast<double>(steps) /
                       *std::min_element(w->loop_s.begin(), w->loop_s.end());
    w->speedup_vs_1 = w->steps_per_sec / widths.front()->steps_per_sec;
  }

  Table table({"threads", "steps/sec", "speedup vs 1", "note"});
  for (const auto& w : widths) {
    table.add_row({Table::fmt(w->threads), Table::fmt(w->steps_per_sec, 3),
                   Table::fmt(w->speedup_vs_1, 2),
                   w->oversubscribed ? "oversubscribed" : ""});
  }
  table.print(std::cout);
  std::cout << "\nhardware_threads=" << hw << "  simd="
            << ops::simd_tier_name(ops::active_simd_tier())
            << (hw < 4 ? "  (speedup capped by host core count)" : "") << "\n";

  // Kernel-time telemetry from the same sweep: span counts and wall-clock
  // latency distributions for the GEMM/im2col hot paths.
  const auto& gemm = obs::registry().histogram("exec.gemm_s", {0.0, 0.05, 50});
  std::cout << "exec.gemm_s: " << gemm.count() << " spans, p95 "
            << Table::fmt(gemm.percentile(0.95) * 1e3, 3) << " ms\n";

  bench::write_json(cfg, "hotpath", {}, [&](JsonWriter& json) {
    json.field("model", "resnet_lite");
    json.field("image", image);
    json.field("base_filters", spec.base_filters);
    json.field("blocks", spec.blocks);
    json.field("batch", batch);
    json.field("steps", steps);
    json.field("warmup", warmup);
    json.open_array("results");
    for (const auto& w : widths) {
      json.open_object();
      json.field("threads", w->threads);
      json.field("steps_per_sec", w->steps_per_sec);
      json.field("speedup_vs_1", w->speedup_vs_1);
      json.field("oversubscribed", w->oversubscribed);
      bench::write_spread(json, "loop_s", w->loop_s);
      json.close_object();
    }
    json.close_array();
    json.raw("metrics", obs::registry().snapshot().to_json());
  });

  if (smoke) {
    // CI gate: the widest in-core pool must not lose to serial. On a 1-core
    // host only the serial row exists and the gate passes trivially (there is
    // nothing to scale into).
    const Width* widest = nullptr;
    for (const auto& w : widths) {
      if (!w->oversubscribed) widest = w.get();
    }
    if (widest != nullptr && widest->threads > 1 && widest->speedup_vs_1 < 1.0) {
      std::cerr << "SMOKE FAIL: " << widest->threads
                << "-thread speedup_vs_1 = " << widest->speedup_vs_1
                << " < 1.0 — the pooled hot path is slower than serial\n";
      return 1;
    }
    std::cout << "smoke: pooled path >= serial at every in-core width\n";
  }
  return 0;
}
