// RAII span timers over the registry's time source (vcdl::obs).
//
// A SpanTimer reads Registry::now() at construction and records the elapsed
// time into a duration histogram at destruction. Under a simulation run the
// current registry is the run's own and carries the engine's virtual clock
// (both installed by VcTrainer::run()), so spans around *real* compute inside
// a DES event — GEMM kernels, im2col, validation forwards — record
// zero-duration samples deterministically: the span *counts* stay exact and
// replayable while the durations defer to the DES's own latency models.
// Outside a simulation (benches, production paths) spans record wall time.
//
// Usage — a free function caches its handles per registry
// (obs::current_handles), then times each call:
//
//   struct ExecMetrics {
//     obs::Registry& registry;
//     obs::Histogram& gemm_s =
//         registry.histogram("exec.gemm_s", {0.0, 0.05, 50});
//   };
//   obs::SpanTimer span(obs::current_handles<ExecMetrics>().gemm_s);
#pragma once

#include "obs/metrics.hpp"

namespace vcdl::obs {

class SpanTimer {
 public:
  explicit SpanTimer(Histogram& sink, Registry& reg = registry())
      : sink_(sink), registry_(reg), start_(reg.now()) {}
  ~SpanTimer() { sink_.observe(registry_.now() - start_); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Seconds elapsed so far (same clock the destructor records with).
  double elapsed() const { return registry_.now() - start_; }

 private:
  Histogram& sink_;
  Registry& registry_;
  double start_;
};

}  // namespace vcdl::obs
