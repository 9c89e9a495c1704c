#include "grid/client.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace vcdl {
SimClient::SimClient(ClientId id, InstanceType instance, ClientConfig config,
                     SimEngine& engine, const NetworkModel& network,
                     InstanceType server_instance, FileServer& files,
                     Scheduler& scheduler, GridServer& server, TraceLog& trace,
                     Rng rng, ExecuteFn execute)
    : id_(id), instance_(std::move(instance)), config_(std::move(config)),
      engine_(engine), network_(network),
      server_instance_(std::move(server_instance)), files_(files),
      scheduler_(scheduler), server_(server), trace_(trace), rng_(rng),
      execute_(std::move(execute)) {
  exec_.pool = config_.exec_pool;
  VCDL_CHECK(config_.max_concurrent >= 1, "SimClient: Tn must be >= 1");
  VCDL_CHECK(config_.retry.max_attempts >= 1,
             "SimClient: retry.max_attempts must be >= 1");
  VCDL_CHECK(execute_ != nullptr, "SimClient: null execute callback");
}

void SimClient::start() {
  scheduler_.register_client(id_);
  up_ = true;
  trace_.record(engine_.now(), TraceKind::instance_up, name());
  schedule_poll(0.0);
  arm_preemption();
  arm_availability();
}

void SimClient::stop() {
  stopped_ = true;
  cancel_pending();
}

void SimClient::schedule_poll(SimTime delay) {
  if (stopped_ || !up_ || poll_scheduled_) return;
  poll_scheduled_ = true;
  const EventId id = engine_.schedule(delay, [this] {
    poll_scheduled_ = false;
    poll();
  });
  track(id);
}

void SimClient::poll() {
  if (stopped_ || !up_) return;
  if (active_ < config_.max_concurrent) {
    const auto units = scheduler_.request_work(
        id_, config_.max_concurrent - active_, engine_.now());
    for (const auto& unit : units) begin_unit(unit);
    if (units.empty()) {
      schedule_poll(config_.poll_interval_s);
      return;
    }
  }
  // Slots full (or just filled): poll again when something completes, or on
  // the regular interval as a safety net.
  schedule_poll(config_.poll_interval_s);
}

bool SimClient::needs_transfer(const Workunit& unit) const {
  for (const auto& ref : unit.inputs) {
    if (!ref.sticky) return true;
    const auto it = cache_.find(ref.name);
    if (it == cache_.end() || it->second != files_.version(ref.name)) {
      return true;
    }
  }
  return false;
}

SimTime SimClient::download_time(const Workunit& unit) {
  SimTime total = 0.0;
  // Parallel fetch groups (sharded parameter plane): members overlap on the
  // wire, so a group contributes its slowest transfer rather than the sum.
  std::map<std::size_t, SimTime> group_slowest;
  for (const auto& ref : unit.inputs) {
    const std::uint64_t current = files_.version(ref.name);
    if (ref.sticky) {
      const auto it = cache_.find(ref.name);
      if (it != cache_.end() && it->second == current) {
        ++stats_.cache_hits;
        files_.record_cache_hit();
        continue;
      }
    }
    // The pull protocol bills a version delta when the server still holds
    // the version this client last downloaded (wire codec, file_server.hpp);
    // under the default full-blob codec it bills exactly wire_size().
    // seen_versions_ is keyed per file name, so each parameter shard's
    // delta base is tracked independently.
    const auto receipt = files_.pull(ref.name, seen_versions_[ref.name]);
    const std::size_t bytes = receipt.wire_bytes;
    seen_versions_[ref.name] = receipt.version;
    const SimTime t =
        network_.transfer_time(bytes, instance_, server_instance_, rng_);
    if (ref.fetch_group == 0) {
      total += t;
    } else {
      auto& slowest = group_slowest[ref.fetch_group];
      slowest = std::max(slowest, t);
    }
    ++stats_.downloads;
    metrics_.bytes_downloaded.inc(bytes);
    if (ref.sticky) {
      cache_[ref.name] = current;
      scheduler_.note_cached(id_, ref.name);
    }
  }
  for (const auto& [group, slowest] : group_slowest) total += slowest;
  return total;
}

void SimClient::begin_unit(const Workunit& unit) {
  ++active_;
  trace_.record(engine_.now(), TraceKind::assigned, name(), unit.label());
  attempt_download(unit, /*attempt=*/0);
}

void SimClient::attempt_download(const Workunit& unit, std::size_t attempt) {
  FaultInjector::TransferOutcome fault;
  // Fully cached units move no bytes, so there is no transfer to fail.
  if (faults_ != nullptr && needs_transfer(unit)) {
    fault = faults_->on_transfer(FaultSite::download);
  }
  if (fault.dropped) {
    transfer_failed(unit, TransferStage::download, nullptr, attempt);
    return;
  }
  const SimTime dl = download_time(unit) * fault.time_factor;
  metrics_.download_s.observe(dl);
  trace_.record(engine_.now(), TraceKind::download, name(), unit.label());
  const EventId id = engine_.schedule(dl, [this, unit] { exec_unit(unit); });
  track(id);
}

void SimClient::exec_unit(const Workunit& unit) {
  trace_.record(engine_.now(), TraceKind::exec_start, name(), unit.label());
  // Real training happens here; virtual duration comes from the instance
  // model at the *current* concurrency level (processor-sharing
  // approximation — see DESIGN.md §4).
  ExecOutcome outcome = execute_(unit, id_, exec_);
  SimTime exec_s = subtask_exec_time(instance_, outcome.work_units, active_,
                                     config_.compute);
  if (config_.compute.exec_jitter_sigma > 0.0) {
    exec_s *= rng_.lognormal(0.0, config_.compute.exec_jitter_sigma);
  }
  stats_.busy_s += exec_s;
  metrics_.exec_s.observe(exec_s);
  auto payload = std::make_shared<Blob>(std::move(outcome.payload));
  const EventId id = engine_.schedule(exec_s, [this, unit, payload] {
    finish_unit(unit, std::move(*payload));
  });
  track(id);
}

void SimClient::finish_unit(const Workunit& unit, Blob payload) {
  trace_.record(engine_.now(), TraceKind::exec_done, name(), unit.label());
  // Corruption strikes the serialized payload once, before the first upload
  // attempt; retries re-send the same corrupted bytes (the client has no way
  // to know, only the server-side checksum validator does).
  if (faults_ != nullptr && faults_->corrupt_result()) {
    faults_->corrupt(payload);
  }
  attempt_upload(unit, std::make_shared<Blob>(std::move(payload)),
                 /*attempt=*/0);
}

void SimClient::attempt_upload(const Workunit& unit,
                               std::shared_ptr<Blob> payload,
                               std::size_t attempt) {
  FaultInjector::TransferOutcome fault;
  if (faults_ != nullptr) fault = faults_->on_transfer(FaultSite::upload);
  if (fault.dropped) {
    transfer_failed(unit, TransferStage::upload, payload, attempt);
    return;
  }
  const SimTime up = network_.transfer_time(payload->size(), instance_,
                                            server_instance_, rng_) *
                     fault.time_factor;
  metrics_.upload_s.observe(up);
  const EventId id =
      engine_.schedule(up, [this, unit, payload, attempt] {
        if (!server_.is_up()) {
          // The grid server is down: the upload bounced. Back off and retry —
          // the server may have recovered (checkpoint replay) by then.
          transfer_failed(unit, TransferStage::upload, payload, attempt);
          return;
        }
        trace_.record(engine_.now(), TraceKind::upload, name(), unit.label());
        metrics_.bytes_uploaded.inc(payload->size());
        VCDL_CHECK(active_ > 0, "SimClient: completion without active subtask");
        --active_;
        metrics_.completed.inc();
        server_.submit_result(id_, unit, std::move(*payload));
        schedule_poll(0.0);  // a slot just freed up
      });
  track(id);
}

void SimClient::transfer_failed(const Workunit& unit, TransferStage stage,
                                std::shared_ptr<Blob> payload,
                                std::size_t attempt) {
  trace_.record(engine_.now(), TraceKind::transfer_failed, name(),
                unit.label() + (stage == TransferStage::download
                                    ? " download"
                                    : " upload"));
  if (attempt + 1 >= config_.retry.max_attempts) {
    // Fast-fail: give the replica back now rather than letting the deadline
    // discover the loss minutes later.
    metrics_.abandoned.inc();
    trace_.record(engine_.now(), TraceKind::subtask_abandoned, name(),
                  unit.label());
    scheduler_.report_failure(id_, unit.id, engine_.now());
    VCDL_CHECK(active_ > 0, "SimClient: abandon without active subtask");
    --active_;
    schedule_poll(config_.poll_interval_s);
    return;
  }
  metrics_.retries.inc();
  const SimTime delay = config_.retry.delay(attempt, rng_);
  const EventId id = engine_.schedule(delay, [this, unit, stage, payload,
                                              attempt] {
    if (stage == TransferStage::download) {
      attempt_download(unit, attempt + 1);
    } else {
      attempt_upload(unit, payload, attempt + 1);
    }
  });
  track(id);
}

void SimClient::arm_preemption() {
  const SimTime next = config_.preemption.sample_next(rng_);
  if (!std::isfinite(next)) return;
  const EventId id = engine_.schedule(next, [this] { preempt(); });
  track(id);
}

void SimClient::preempt() {
  if (stopped_ || !up_) return;
  up_ = false;
  metrics_.preemptions.inc();
  trace_.record(engine_.now(), TraceKind::preempted, name(),
                std::to_string(active_) + " subtasks lost");
  cancel_pending();
  active_ = 0;
  poll_scheduled_ = false;
  // The replacement instance starts with a cold cache — including the
  // training scratch arena and the delta-base versions (no local copy left
  // to decode a delta against). An offline/online cycle keeps both: the
  // volunteer's disk survives.
  cache_.clear();
  seen_versions_.clear();
  scheduler_.clear_cache(id_);
  exec_.arena.release();
  const EventId id =
      engine_.schedule(config_.preemption.downtime_s, [this] { restore(); });
  track(id);
}

void SimClient::restore() {
  if (stopped_) return;
  up_ = true;
  trace_.record(engine_.now(), TraceKind::instance_up, name(), "replacement");
  schedule_poll(0.0);
  arm_preemption();
  arm_availability();
}

void SimClient::arm_availability() {
  if (!config_.availability.enabled()) return;
  const SimTime next = config_.availability.sample_up(rng_);
  const EventId id = engine_.schedule(next, [this] { go_offline(); });
  track(id);
}

void SimClient::go_offline() {
  if (stopped_ || !up_) return;
  up_ = false;
  metrics_.offline.inc();
  trace_.record(engine_.now(), TraceKind::preempted, name(),
                "volunteer offline, " + std::to_string(active_) +
                    " subtasks lost");
  cancel_pending();
  active_ = 0;
  poll_scheduled_ = false;
  // The volunteer's disk survives: sticky cache intact (unlike a preemption).
  const SimTime down = config_.availability.sample_down(rng_);
  const EventId id = engine_.schedule(down, [this] { come_online(); });
  track(id);
}

void SimClient::come_online() {
  if (stopped_) return;
  up_ = true;
  trace_.record(engine_.now(), TraceKind::instance_up, name(),
                "volunteer online");
  schedule_poll(0.0);
  arm_preemption();
  arm_availability();
}

void SimClient::cancel_pending() {
  // Copy: cancel() mutates nothing here, but keep iteration safe anyway.
  std::vector<EventId> ids;
  ids.reserve(pending_events_.size());
  for (const auto& [seq, id] : pending_events_) ids.push_back(id);
  for (const EventId id : ids) engine_.cancel(id);
  pending_events_.clear();
}

}  // namespace vcdl
