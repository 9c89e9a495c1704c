#include "core/param_server.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "core/eval.hpp"
#include "core/test_hooks.hpp"
#include "core/vcasgd.hpp"
#include "grid/consensus.hpp"
#include "nn/model_io.hpp"
#include "sim/engine.hpp"

namespace vcdl {
VcAsgdAssimilator::VcAsgdAssimilator(
    SimEngine& engine, KvStore& store, FileServer& files, GridServer& server,
    const AlphaSchedule& schedule, Model eval_model, const Dataset& validation,
    InstanceType server_instance, Options options, TraceLog& trace, Rng rng,
    std::function<void(std::size_t, double)> on_assimilated)
    : engine_(engine), store_(store), files_(files), server_(server),
      schedule_(schedule), eval_model_(std::move(eval_model)),
      validation_(validation), server_instance_(std::move(server_instance)),
      options_(std::move(options)), trace_(trace), rng_(rng),
      on_assimilated_(std::move(on_assimilated)) {
  VCDL_CHECK(on_assimilated_ != nullptr, "VcAsgdAssimilator: null callback");
}

void VcAsgdAssimilator::publish_initial(const std::vector<float>& params) {
  // Resolve the shard plan on first publish (checkpoint replay re-enters
  // with the same-sized vector and keeps the plan).
  if (plan_.empty() || plan_.total() != params.size()) {
    plan_ = options_.plan.empty() || options_.plan.total() != params.size()
                ? ShardPlan::single(params.size())
                : options_.plan;
    base_rings_.assign(plan_.shards(), {});
    shard_stats_.assign(plan_.shards(), {});
  }
  published_ = params;
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    Blob blob = save_params(plan_.view(std::span<const float>(params), s));
    store_.put(shard_key(s), blob, 0);
    files_.publish(shard_key(s), std::move(blob), /*compress=*/true,
                   /*delta_capable=*/options_.wire_mode != WireMode::full);
  }
  if (options_.wire_mode != WireMode::full) {
    // Checkpoint replay re-enters here with rewound params while commits_
    // stays put; clear the rings so no stale pre-crash base survives under
    // its old version number. Future commits will *reuse* those version
    // numbers with different params — which is why ring hits also compare
    // the frame's base_hash: a pre-crash upload whose base_version matches
    // a post-replay entry hash-misses and takes the ring-miss path instead
    // of silently decoding against the wrong base.
    for (std::size_t s = 0; s < plan_.shards(); ++s) {
      const auto slice = plan_.view(std::span<const float>(published_), s);
      base_rings_[s].clear();
      base_rings_[s][commits_] = {params_hash(slice),
                                  {slice.begin(), slice.end()}};
    }
  }
}

SimTime VcAsgdAssimilator::validation_time() const {
  // Busy workers share the server instance's vCPUs; each wants ps_threads.
  const std::size_t busy = std::max<std::size_t>(1, server_.active_assimilations());
  const double share =
      static_cast<double>(server_instance_.vcpus) / static_cast<double>(busy);
  const double eff =
      std::min(static_cast<double>(options_.ps_threads), share);
  return options_.validate_work / (server_instance_.clock_ghz * eff);
}

std::vector<float> VcAsgdAssimilator::read_shards(
    std::vector<std::uint64_t>& read_versions) {
  std::vector<float> server_params(plan_.total());
  read_versions.assign(plan_.shards(), 0);
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    const auto current = store_.get(shard_key(s));
    VCDL_CHECK(current.has_value(), "assimilate: params missing from store");
    const std::vector<float> slice = load_params(current->value);
    const auto dst = plan_.view(std::span<float>(server_params), s);
    VCDL_CHECK(slice.size() == dst.size(),
               "assimilate: shard store blob size mismatch");
    std::copy(slice.begin(), slice.end(), dst.begin());
    read_versions[s] = current->version;
  }
  return server_params;
}

void VcAsgdAssimilator::commit(
    const std::vector<float>& params,
    const std::vector<std::uint64_t>& read_versions) {
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    Blob blob = save_params(plan_.view(std::span<const float>(params), s));
    const std::uint64_t new_version =
        store_.put(shard_key(s), blob, read_versions[s]);
    files_.publish(shard_key(s), std::move(blob), /*compress=*/true,
                   /*delta_capable=*/options_.wire_mode != WireMode::full);
    if (read_versions[s] > 0) {
      // Versions that landed between our read and this write — 0 on a
      // strong store (the transaction serializes), positive on an eventual
      // store when another worker's blend slipped in (its update is what we
      // clobbered). Shards commit in lockstep, so every shard reports the
      // same staleness and the gauge holds one value.
      metrics_.staleness.set(
          static_cast<double>(new_version - read_versions[s] - 1));
    }
  }
  published_ = params;
  ++commits_;
  remember_base();
  metrics_.updates.inc();
}

void VcAsgdAssimilator::remember_base() {
  if (options_.wire_mode == WireMode::full) return;
  std::set<std::uint64_t> pinned;
  for (const auto& [unit, bases] : exec_base_) {
    pinned.insert(bases.begin(), bases.end());
  }
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    auto& ring = base_rings_[s];
    const auto slice = plan_.view(std::span<const float>(published_), s);
    ring[commits_] = {params_hash(slice), {slice.begin(), slice.end()}};
    for (auto it = ring.begin();
         ring.size() > options_.version_ring && it != ring.end() &&
         it->first < commits_;) {
      if (pinned.count(it->first) > 0) {
        ++it;
      } else {
        it = ring.erase(it);
      }
    }
  }
}

std::optional<std::vector<float>> VcAsgdAssimilator::decode_payload(
    const Blob& payload) {
  if (is_shard_bundle(payload)) return decode_bundle(payload);
  if (!is_wire_frame(payload)) return load_params(payload);
  const WireFrame frame = read_frame_header(payload);
  const auto& ring = base_rings_[0];
  const auto it = ring.find(frame.base_version);
  if (it != ring.end() && it->second.hash == frame.base_hash) {
    metrics_.frames_decoded.inc();
    ++shard_stats_[0].frames_decoded;
    return decode_params(payload, it->second.params);
  }
  metrics_.base_misses.inc();
  ++shard_stats_[0].base_misses;
  if (frame.mode == WireMode::delta) {
    // Lossless deltas are zigzag diffs of the floats' *bit patterns*;
    // decoded against anything but their exact encode base they become
    // arbitrary floats (NaN/Inf included), so a ring miss drops the upload
    // rather than poisoning the blend.
    metrics_.frames_dropped.inc();
    ++shard_stats_[0].frames_dropped;
    return std::nullopt;
  }
  // q8 diffs live in float space, so against the current published copy the
  // decode degrades to plain update application.
  return decode_params(payload, published_);
}

std::optional<std::vector<float>> VcAsgdAssimilator::decode_bundle(
    const Blob& payload) {
  const std::vector<Blob> parts = unpack_shard_frames(payload);
  if (parts.size() != plan_.shards()) {
    // A bundle from a different plan (or a sabotaged client) cannot be
    // routed; drop it like a ring-missed delta.
    metrics_.frames_dropped.inc();
    return std::nullopt;
  }
  std::vector<float> out(plan_.total());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const WireFrame frame = read_frame_header(parts[s]);
    const auto dst = plan_.view(std::span<float>(out), s);
    const auto& ring = base_rings_[s];
    const auto it = ring.find(frame.base_version);
    std::vector<float> slice;
    if (it != ring.end() && it->second.hash == frame.base_hash) {
      metrics_.frames_decoded.inc();
      ++shard_stats_[s].frames_decoded;
      slice = decode_params(parts[s], it->second.params);
    } else {
      metrics_.base_misses.inc();
      ++shard_stats_[s].base_misses;
      if (frame.mode == WireMode::delta) {
        // One undecodable bit-space part poisons the concatenated vector;
        // the whole upload is dropped, mirroring the monolithic ring miss.
        metrics_.frames_dropped.inc();
        ++shard_stats_[s].frames_dropped;
        return std::nullopt;
      }
      slice = decode_params(
          parts[s], plan_.view(std::span<const float>(published_), s));
    }
    VCDL_CHECK(slice.size() == dst.size(),
               "decode_bundle: shard slice size mismatch");
    std::copy(slice.begin(), slice.end(), dst.begin());
  }
  return out;
}

std::optional<std::vector<float>> VcAsgdAssimilator::peek_decode(
    const Blob& payload) const {
  if (is_shard_bundle(payload)) {
    // Consensus equivalence for sharded uploads: every part must ring-hit
    // (no speculative fallback), else the replica stays incomparable.
    const std::vector<Blob> parts = unpack_shard_frames(payload);
    if (parts.size() != plan_.shards()) return std::nullopt;
    std::vector<float> out(plan_.total());
    for (std::size_t s = 0; s < parts.size(); ++s) {
      const WireFrame frame = read_frame_header(parts[s]);
      const auto& ring = base_rings_[s];
      const auto it = ring.find(frame.base_version);
      if (it == ring.end() || it->second.hash != frame.base_hash) {
        return std::nullopt;
      }
      const std::vector<float> slice =
          decode_params(parts[s], it->second.params);
      const auto dst = plan_.view(std::span<float>(out), s);
      if (slice.size() != dst.size()) return std::nullopt;
      std::copy(slice.begin(), slice.end(), dst.begin());
    }
    return out;
  }
  if (!is_wire_frame(payload)) return load_params(payload);
  const WireFrame frame = read_frame_header(payload);
  const auto& ring = base_rings_[0];
  const auto it = ring.find(frame.base_version);
  if (it != ring.end() && it->second.hash == frame.base_hash) {
    return decode_params(payload, it->second.params);
  }
  // No speculative fallback decode here (unlike decode_payload): an
  // undecodable replica must stay incomparable, not coincidentally match.
  return std::nullopt;
}

std::optional<std::vector<float>> VcAsgdAssimilator::guarded_decode(
    const ResultEnvelope& env, const std::vector<float>& server_params) {
  std::optional<std::vector<float>> client_params = decode_payload(env.payload);
  if (client_params.has_value() &&
      blend_outlier(server_params, *client_params,
                    options_.blend_outlier_threshold)) {
    trace_.record(engine_.now(), TraceKind::blend_rejected, "assimilator",
                  env.unit.label() + " client-" + std::to_string(env.client));
    client_params.reset();
  }
  return client_params;
}

void VcAsgdAssimilator::note_exec_base(WorkunitId unit) {
  exec_base_[unit].push_back(commits_);
}

void VcAsgdAssimilator::observe_gradient_age(WorkunitId unit) {
  const auto it = exec_base_.find(unit);
  if (it == exec_base_.end()) return;  // trainer did not record this unit
  metrics_.gradient_age.observe(
      static_cast<double>(commits_ - it->second.back()));
  // Dropping every replica's pin here is safe because the grid server
  // retires the unit on its first valid result (Scheduler::report_result)
  // and later duplicates never reach assimilate() — no further decode for
  // this unit can occur.
  exec_base_.erase(it);
}

void VcAsgdAssimilator::release_exec_base(WorkunitId unit) {
  exec_base_.erase(unit);
}

void VcAsgdAssimilator::assimilate(ResultEnvelope env, std::size_t ps_index,
                                   std::function<void()> on_done) {
  auto shared_env = std::make_shared<ResultEnvelope>(std::move(env));
  auto done = std::make_shared<std::function<void()>>(std::move(on_done));
  try_assimilate(std::move(shared_env), std::move(done), ps_index,
                 /*attempt=*/0);
}

void VcAsgdAssimilator::try_assimilate(
    std::shared_ptr<ResultEnvelope> env,
    std::shared_ptr<std::function<void()>> done, std::size_t ps_index,
    std::size_t attempt) {
  // Every continuation below checks the server generation it started under:
  // a crash bumps it, the worker slot was already reset, and this chain must
  // stop dead — committing pre-crash state after a checkpoint replay would
  // resurrect exactly what the crash destroyed.
  const std::uint64_t gen = server_.generation();
  const std::string ps_name = "ps-" + std::to_string(ps_index);

  // Injected store fault: one draw covers this attempt's read+write pair.
  double latency_factor = 1.0;
  if (faults_ != nullptr) {
    const auto fault = faults_->on_transfer(FaultSite::store);
    if (fault.dropped) {
      // Outage: back off and retry the whole attempt. Unbounded but capped —
      // the result is already retired at the scheduler, so abandoning it
      // here would strand the workunit.
      trace_.record(engine_.now(), TraceKind::store_fault, ps_name,
                    env->unit.label() + " retry " + std::to_string(attempt));
      metrics_.outage_retries.inc();
      const SimTime delay = store_retry_.delay(attempt, rng_);
      engine_.schedule(delay, [this, env, done, ps_index, attempt, gen] {
        if (server_.generation() != gen) return;
        try_assimilate(env, done, ps_index, attempt + 1);
      });
      return;
    }
    latency_factor = fault.time_factor;
    if (latency_factor > 1.0) {
      trace_.record(engine_.now(), TraceKind::store_fault, ps_name,
                    env->unit.label() + " latency spike");
    }
  }

  const double alpha = schedule_.alpha(env->unit.epoch);
  const auto shared_env = env;

  if (store_.kind() == "strong") {
    // MySQL-like: the read-blend-write is one serializable transaction; the
    // virtual lock makes concurrent workers queue, then each pays the full
    // 1.29 s update latency. Validation happens outside the transaction.
    txn_lock_.acquire([this, shared_env, done, alpha, gen, latency_factor] {
      if (server_.generation() != gen) {
        txn_lock_.release();
        return;
      }
      metrics_.read_s.observe(store_.latency().read_s * latency_factor);
      metrics_.write_s.observe(store_.latency().write_s * latency_factor);
      metrics_.alpha_mix_s.observe(store_.latency().update_s() *
                                    latency_factor);
      engine_.schedule(
          store_.latency().update_s() * latency_factor,
          [this, shared_env, done, alpha, gen] {
            if (server_.generation() != gen) {
              txn_lock_.release();
              return;
            }
            std::vector<std::uint64_t> read_versions;
            std::vector<float> server_params = read_shards(read_versions);
            const std::optional<std::vector<float>> client_params =
                guarded_decode(*shared_env, server_params);
            if (client_params.has_value()) {
              // Eq. (1) routed per shard slice — elementwise, so the
              // concatenation of the shard blends is bit-identical to one
              // full-span blend (the cross-shard property in
              // tests/test_shard_plane.cpp).
              for (std::size_t s = 0; s < plan_.shards(); ++s) {
                if (shard_hooks::misroute_blend && s == 0) continue;
                vcasgd_update(
                    plan_.view(std::span<float>(server_params), s),
                    plan_.view(std::span<const float>(*client_params), s),
                    alpha);
              }
              observe_gradient_age(shared_env->unit.id);
              commit(server_params, read_versions);
            } else {
              // Ring-missed lossless delta: the upload is dropped, but the
              // unit is already retired at the scheduler, so the pipeline
              // still validates (the unchanged params) and reports — an
              // abandoned chain would stall the epoch.
              release_exec_base(shared_env->unit.id);
            }
            txn_lock_.release();
            // Validation of the committed parameters.
            eval_model_.set_flat_params(server_params);
            const double acc = evaluate_accuracy_subsample(
                eval_model_, validation_, options_.validation_subsample, rng_,
                exec_);
            engine_.schedule(validation_time(),
                             [this, shared_env, done, acc, gen] {
                               if (server_.generation() != gen) return;
                               on_assimilated_(shared_env->unit.epoch, acc);
                               (*done)();
                             });
          });
    });
    return;
  }

  // Redis-like (eventual): read and write are independent events separated
  // only by the store latencies; two workers whose windows overlap clobber
  // each other (lost updates), exactly as in §III-D. Validation happens
  // *after* the write, outside the race window, as in the paper's pipeline
  // ("after assimilating ... the parameter server computes the validation
  // accuracy").
  metrics_.read_s.observe(store_.latency().read_s * latency_factor);
  metrics_.write_s.observe(store_.latency().write_s * latency_factor);
  metrics_.alpha_mix_s.observe(store_.latency().update_s() * latency_factor);
  engine_.schedule(
      store_.latency().read_s * latency_factor,
      [this, shared_env, done, alpha, gen, latency_factor] {
        if (server_.generation() != gen) return;
        auto read_versions = std::make_shared<std::vector<std::uint64_t>>();
        auto server_params =
            std::make_shared<std::vector<float>>(read_shards(*read_versions));
        const std::optional<std::vector<float>> client_params =
            guarded_decode(*shared_env, *server_params);
        // A dropped upload (ring-missed lossless delta or a blend-guard
        // rejection) skips the blend and the commit but still flows through
        // validation + reporting: the unit is already retired at the
        // scheduler.
        const bool applied = client_params.has_value();
        if (applied) {
          // Eq. (1) per shard slice (see the strong path above).
          for (std::size_t s = 0; s < plan_.shards(); ++s) {
            if (shard_hooks::misroute_blend && s == 0) continue;
            vcasgd_update(
                plan_.view(std::span<float>(*server_params), s),
                plan_.view(std::span<const float>(*client_params), s), alpha);
          }
        }
        engine_.schedule(
            store_.latency().write_s * latency_factor,
            [this, shared_env, done, server_params, read_versions, applied,
             gen] {
              if (server_.generation() != gen) return;
              if (applied) {
                observe_gradient_age(shared_env->unit.id);
                commit(*server_params, *read_versions);
              } else {
                release_exec_base(shared_env->unit.id);
              }
              // Validate the committed copy (real forward passes, virtual
              // duration).
              eval_model_.set_flat_params(*server_params);
              const double acc = evaluate_accuracy_subsample(
                  eval_model_, validation_, options_.validation_subsample,
                  rng_, exec_);
              engine_.schedule(validation_time(),
                               [this, shared_env, done, acc, gen] {
                                 if (server_.generation() != gen) return;
                                 on_assimilated_(shared_env->unit.epoch, acc);
                                 (*done)();
                               });
            });
      });
}

}  // namespace vcdl
