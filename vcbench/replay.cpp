#include "replay.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "common/compress.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/wire_codec.hpp"
#include "core/alpha_schedule.hpp"
#include "core/eval.hpp"
#include "core/shard_plan.hpp"
#include "core/vcasgd.hpp"
#include "core/work_generator.hpp"
#include "grid/client.hpp"
#include "grid/file_server.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"
#include "nn/loss.hpp"
#include "nn/misc_layers.hpp"
#include "nn/model_io.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/instance.hpp"
#include "sim/trace.hpp"
#include "storage/kvstore.hpp"
#include "tensor/ops.hpp"

namespace vcbench {
namespace {

using namespace vcdl;

/// Sum and count of one kind of timed call.
struct Acc {
  double s = 0.0;
  std::uint64_t n = 0;
  void add(double x) {
    s += x;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : s / static_cast<double>(n); }
};

/// Times `fn` over at least `min_calls` calls and `min_s` seconds; returns
/// seconds per call.
double per_call(const std::function<void()>& fn, std::size_t min_calls,
                double min_s) {
  fn();  // warm caches and lazy set-up
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (calls < min_calls || elapsed < min_s) {
    fn();
    ++calls;
    elapsed = since(t0);
  }
  return elapsed / static_cast<double>(calls);
}

std::uint64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

std::uint64_t hist_count(const obs::MetricsSnapshot& s,
                         const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- GEMM shapes ------------------------------------------------------------

enum class Gemm { matmul, at_b, a_bt };

/// One GEMM call shape: C[m x n] from a K-deep product, issued `per_step`
/// times by one training step (forward + backward).
struct GemmShape {
  Gemm entry;
  std::size_t m, k, n;
  std::size_t per_step;
  bool pooled;
};

/// The GEMMs one training step issues, read off each conv/dense layer's
/// input shape and weight shape (see nn/conv2d.cpp, nn/dense.cpp): a conv
/// runs one im2col GEMM per batch item, a dense layer one per batch.
void collect_gemms(Layer& layer, const Tensor& x, ExecContext& exec,
                   std::vector<GemmShape>& out) {
  if (auto* res = dynamic_cast<Residual*>(&layer)) {
    Tensor y = x;
    for (const auto& inner : res->inner()) {
      collect_gemms(*inner, y, exec, out);
      y = inner->forward(y, exec, /*training=*/false);
    }
    return;
  }
  const std::string kind = layer.kind();
  if (kind == "conv2d") {
    const Tensor& w = *layer.params()[0];  // [out_c, in_c * k * k]
    const Tensor y = layer.forward(x, exec, /*training=*/false);
    const std::size_t batch = x.shape()[0];
    const std::size_t out_c = w.shape()[0];
    const std::size_t col_rows = w.numel() / out_c;
    const std::size_t plane = y.numel() / (batch * out_c);
    out.push_back({Gemm::matmul, out_c, col_rows, plane, batch, false});
    out.push_back({Gemm::a_bt, out_c, plane, col_rows, batch, false});
    out.push_back({Gemm::at_b, col_rows, out_c, plane, batch, false});
  } else if (kind == "dense") {
    const Tensor& w = *layer.params()[0];  // [in, out]
    const std::size_t batch = x.shape()[0];
    const std::size_t in = w.shape()[0], outn = w.shape()[1];
    out.push_back({Gemm::matmul, batch, in, outn, 1, true});
    out.push_back({Gemm::at_b, in, batch, outn, 1, true});
    out.push_back({Gemm::a_bt, batch, outn, in, 1, true});
  }
}

/// Mean seconds per call of each GEMM entry point over the step's call mix.
std::map<Gemm, double> time_gemms(const std::vector<GemmShape>& shapes,
                                  ThreadPool* pool) {
  Rng rng(0x6E33);
  std::map<Gemm, double> secs, calls;
  for (const GemmShape& g : shapes) {
    // Operand storage as the entry point reads it: A is m x k (k x m for
    // at_b), B is k x n (n x k for a_bt).
    std::vector<float> a(g.m * g.k), b(g.k * g.n);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    Tensor c(Shape{g.m, g.n});
    ThreadPool* p = g.pooled ? pool : nullptr;
    std::function<void()> call;
    switch (g.entry) {
      case Gemm::matmul:
        call = [&] { ops::matmul(ops::MatView{a.data(), g.m, g.k}, ops::MatView{b.data(), g.k, g.n}, c, false, p); };
        break;
      case Gemm::at_b:
        call = [&] { ops::matmul_at_b(ops::MatView{a.data(), g.k, g.m}, ops::MatView{b.data(), g.k, g.n}, c, false, p); };
        break;
      case Gemm::a_bt:
        call = [&] { ops::matmul_a_bt(ops::MatView{a.data(), g.m, g.k}, ops::MatView{b.data(), g.n, g.k}, c, false, p); };
        break;
    }
    secs[g.entry] += per_call(call, 50, 0.01) * static_cast<double>(g.per_step);
    calls[g.entry] += static_cast<double>(g.per_step);
  }
  std::map<Gemm, double> mean;
  for (const auto& [entry, s] : secs) mean[entry] = s / calls[entry];
  return mean;
}

// --- client upload encode (mirrors the trainer's execute callback) ---------

Blob encode_upload(WireMode mode, const ShardPlan& plan, Model& model,
                   std::span<const float> base, ExecContext& exec) {
  if (mode == WireMode::full) return save_params(model);
  const std::vector<float> flat = model.flat_params();
  const std::span<const float> target(flat);
  const auto encode = [&](std::span<const float> b, std::span<const float> t) {
    return mode == WireMode::delta ? encode_params_delta(b, t, 0)
                                   : encode_params_q8(b, t, 0);
  };
  if (plan.shards() == 1) return encode(base, target);
  std::vector<Blob> parts(plan.shards());
  const auto one = [&](std::size_t s) {
    parts[s] = encode(plan.view(base, s), plan.view(target, s));
  };
  if (exec.pool != nullptr) {
    exec.pool->parallel_for(0, parts.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) one(s);
    });
  } else {
    for (std::size_t s = 0; s < parts.size(); ++s) one(s);
  }
  return pack_shard_frames(parts);
}

/// Decodes an upload as the assimilator does (one frame per plane shard);
/// returns the frame count.
std::size_t decode_upload(const Blob& payload, const ShardPlan& plan,
                          std::span<const float> base, std::vector<float>& out) {
  if (!is_wire_frame(payload) && !is_shard_bundle(payload)) {
    out = load_params(payload);
    return 0;
  }
  if (plan.shards() == 1) {
    out = decode_params(payload, base);
    return 1;
  }
  const std::vector<Blob> parts = unpack_shard_frames(payload);
  out.assign(plan.total(), 0.0f);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const std::vector<float> slice = decode_params(parts[s], plan.view(base, s));
    std::copy(slice.begin(), slice.end(), plan.view(std::span<float>(out), s).begin());
  }
  return parts.size();
}

// --- control-plane stub replay ----------------------------------------------

struct ControlPlane {
  std::uint64_t events = 0;
  std::uint64_t polls = 0;
  double seconds = 0.0;
};

/// Stands in for the parameter servers: does no work, but holds a server
/// for `hold_s` of virtual time per result, so the stub's epochs last as
/// long as the run's and idle clients poll as often as they did there.
class StubBackend final : public AssimilatorBackend {
 public:
  StubBackend(SimEngine& engine, SimTime hold_s,
              std::function<void(std::size_t)> on_result)
      : engine_(engine), hold_s_(hold_s), on_result_(std::move(on_result)) {}
  void assimilate(ResultEnvelope env, std::size_t,
                  std::function<void()> on_done) override {
    ++events;
    engine_.schedule(hold_s_, [this, epoch = env.unit.epoch, done = std::move(on_done)] {
      on_result_(epoch);
      done();
    });
  }
  std::uint64_t events = 0;

 private:
  SimEngine& engine_;
  SimTime hold_s_;
  std::function<void(std::size_t)> on_result_;
};

/// The workload's fleet (Cn clients x Tn slots polling every
/// poll_interval_s) and unit count (num_shards per epoch, max_epochs), run
/// through the public grid classes with a stub ExecuteFn that returns an
/// upload of the run's mean size after the spec's work units, and a stub
/// backend holding each result for `hold_s`.
ControlPlane replay_control_plane(const ExperimentSpec& spec,
                                  const JobInputs& in, const ShardPlan& plan,
                                  const std::vector<float>& params,
                                  std::size_t upload_bytes, SimTime hold_s) {
  SimEngine engine;
  TraceLog trace;
  trace.set_enabled(false);
  Scheduler scheduler;
  FileServer files;
  const WireMode mode = wire_mode_from_name(spec.wire_codec);
  files.set_wire_codec(mode, spec.wire_version_ring);
  GridServer server(engine, scheduler, trace, spec.parameter_servers,
                    [](const Blob&) { return true; });
  WorkGenerator::Options wg;
  wg.num_shards = spec.num_shards;
  wg.subtask_timeout_s = spec.subtask_timeout_s;
  wg.replication = spec.replication;
  wg.param_shards = spec.param_shards;
  WorkGenerator work_gen(scheduler, files, trace, engine, wg);
  work_gen.publish_static(in.arch, in.shard_blobs);
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    files.publish(work_gen.param_file(s),
                  save_params(plan.view(std::span<const float>(params), s)),
                  /*compress=*/true, mode != WireMode::full);
  }

  const FleetCatalog catalog = table1_catalog();
  const auto fleet = make_client_fleet(catalog, spec.clients, false, 0.0);
  std::vector<std::unique_ptr<SimClient>> clients;
  bool running = true;
  std::map<std::size_t, std::size_t> per_epoch;
  std::uint64_t own_events = 0;  // engine events this function schedules
  StubBackend backend(engine, hold_s, [&](std::size_t epoch) {
    if (++per_epoch[epoch] < spec.num_shards || !running) return;
    if (epoch < spec.max_epochs) {
      work_gen.generate_epoch(epoch + 1);
    } else {
      running = false;
      for (auto& c : clients) c->stop();
    }
  });
  server.set_backend(&backend);

  const Blob upload(std::vector<std::uint8_t>(upload_bytes, 0x5A));
  const ExecuteFn stub = [&](const Workunit&, ClientId, ExecContext&) {
    return ExecOutcome{upload, spec.work_per_subtask};
  };
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ClientConfig cc;
    cc.max_concurrent = spec.tasks_per_client;
    cc.poll_interval_s = spec.poll_interval_s;
    clients.push_back(std::make_unique<SimClient>(
        i, fleet[i], cc, engine, spec.network, catalog.server, files,
        scheduler, server, trace, Rng(mix64(spec.seed, 0xC11E + i)), stub));
  }
  std::function<void()> sweep = [&] {
    ++own_events;
    if (!running) return;
    (void)scheduler.expire_deadlines(engine.now());
    engine.schedule(15.0, sweep);  // the trainer's timeout-sweep period
  };

  const obs::MetricsSnapshot before = obs::registry().snapshot();
  const auto t0 = Clock::now();
  work_gen.generate_epoch(1);
  for (auto& c : clients) c->start();
  engine.schedule(15.0, sweep);
  engine.run();
  ControlPlane cp;
  cp.seconds = since(t0);
  cp.events = engine.executed();
  // Fault-free, a client schedules exactly one event per download, exec and
  // upload leg (grid/client.cpp), each observed once in the registry; every
  // other client event is a poll.
  const obs::MetricsSnapshot d = obs::registry().snapshot().diff(before);
  const std::uint64_t legs = hist_count(d, "client.subtask_exec_s") +
                             hist_count(d, "client.upload_s") +
                             counter(d, "client.completed");
  const std::uint64_t other = legs + own_events + backend.events;
  cp.polls = cp.events >= other ? cp.events - other : 0;
  return cp;
}

std::string layer_name(std::size_t i, const std::string& kind) {
  return "nn.layer." + std::string(i < 10 ? "0" : "") + std::to_string(i) + "_" + kind;
}

}  // namespace

JobInputs build_inputs(const ExperimentSpec& spec) {
  JobInputs in;
  auto t0 = Clock::now();
  if (spec.workload == ExperimentSpec::Workload::timeseries) {
    TimeseriesSpec ts = spec.timeseries;
    ts.seed = mix64(spec.seed, 0xDA7A);
    in.data = make_regime_timeseries(ts);
  } else {
    SyntheticSpec images = spec.data;
    images.seed = mix64(spec.seed, 0xDA7A);
    in.data = make_synthetic_cifar(images);
  }
  in.synth_s = since(t0);

  t0 = Clock::now();
  in.shards = make_shards(in.data.train, spec.num_shards, spec.shard_policy,
                          mix64(spec.seed, 0x5AAD));
  in.shard_blobs.reserve(in.shards.count());
  for (const auto& shard : in.shards.shards) in.shard_blobs.push_back(shard.encode());
  in.shards_s = since(t0);

  t0 = Clock::now();
  if (spec.model_kind == ExperimentSpec::ModelKind::mlp) {
    MlpSpec mlp = spec.mlp;
    if (mlp.inputs == 0) mlp.inputs = in.data.train.pixels_per_image();
    mlp.classes = in.data.train.classes();
    in.model = make_mlp(mlp, mix64(spec.seed, 0x30DE1));
  } else {
    in.model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  }
  in.arch = save_architecture(in.model);
  in.model_s = since(t0);
  return in;
}

ReplayReport replay_layers(const ExperimentSpec& spec, const TrainResult& run,
                           double run_wall_s, bool drift) {
  ReplayReport rep;
  const obs::MetricsSnapshot& S = run.metrics;
  const auto add = [&rep](const std::string& name, double value,
                          const std::string& unit) {
    rep.metrics.push_back({name, value, unit});
  };
  const auto expect_eq = [&rep](const std::string& what, std::uint64_t replay,
                                std::uint64_t program) {
    if (replay != program) {
      rep.mismatches.push_back(what + ": replay " + std::to_string(replay) +
                               " vs run " + std::to_string(program));
    }
  };

  JobInputs in = build_inputs(spec);
  std::unique_ptr<ThreadPool> pool;
  if (spec.worker_threads != 1) pool = std::make_unique<ThreadPool>(spec.worker_threads);
  ExecContext exec;
  exec.pool = pool.get();

  // Inside a run the registry reads the engine's clock, so kernel spans are
  // call counts; a frozen clock gives the replay the same bookkeeping cost
  // and lets its GEMM count be compared with the run's.
  obs::registry().reset_values();
  const obs::FunctionTimeSource frozen([] { return 0.0; });
  obs::ScopedTimeSource clock_guard(obs::registry(), frozen);

  const WireMode mode = wire_mode_from_name(spec.wire_codec);
  std::vector<std::size_t> layer_sizes;
  for (std::size_t i = 0; i < in.model.layer_count(); ++i) {
    std::size_t n = 0;
    for (const Tensor* t : in.model.layer(i).params()) n += t->numel();
    layer_sizes.push_back(n);
  }
  const ShardPlan plan = ShardPlan::build(layer_sizes, spec.param_shards);
  const std::vector<float> initial = in.model.flat_params();
  const std::span<const float> initial_span(initial);

  // --- nn + data: client local training, one pass per executed subtask ----
  const std::uint64_t executed = hist_count(S, "client.subtask_exec_s");
  Model worker = in.model;
  const std::size_t layers = worker.layer_count();
  std::vector<Acc> layer_fwd(layers), layer_bwd(layers);
  Acc fwd, bwd, opt, gather, encode;
  double train_s = 0.0;
  Rng order_rng(mix64(spec.seed, 0xE0E0));
  Blob upload;
  for (std::uint64_t k = 0; k < executed; ++k) {
    const Dataset& shard = in.shards.shards[k % in.shards.count()];
    const auto t_sub = Clock::now();
    worker.set_flat_params(initial);
    auto optimizer = make_optimizer(spec.optimizer, spec.learning_rate);
    std::vector<std::size_t> order(shard.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t pass = 0; pass < spec.local_epochs; ++pass) {
      order_rng.shuffle(order.begin(), order.end());
      for (std::size_t first = 0; first < order.size(); first += spec.batch_size) {
        const std::size_t count = std::min(spec.batch_size, order.size() - first);
        const std::span<const std::size_t> idx(order.data() + first, count);
        auto t = Clock::now();
        const Tensor x = shard.gather_tensor(idx);
        std::vector<std::uint16_t> labels(count);
        for (std::size_t i = 0; i < count; ++i) labels[i] = shard.label(idx[i]);
        gather.add(since(t));

        t = Clock::now();
        Tensor y = x;
        for (std::size_t i = 0; i < layers; ++i) {
          const auto tl = Clock::now();
          y = worker.layer(i).forward(y, exec, /*training=*/true);
          layer_fwd[i].add(since(tl));
        }
        fwd.add(since(t));

        t = Clock::now();
        const auto loss = softmax_cross_entropy(y, labels);
        worker.zero_grads();
        Tensor g = loss.grad;
        for (std::size_t i = layers; i-- > 0;) {
          const auto tl = Clock::now();
          g = worker.layer(i).backward(g, exec);
          layer_bwd[i].add(since(tl));
        }
        bwd.add(since(t));

        t = Clock::now();
        optimizer->step(worker);
        opt.add(since(t));
      }
    }
    const auto t_enc = Clock::now();
    upload = encode_upload(mode, plan, worker, initial_span, exec);
    encode.add(since(t_enc));
    train_s += since(t_sub);
  }
  train_s -= encode.s;

  // --- core + storage + wire codec: one assimilation per accepted result --
  // Duplicate uploads (a timed-out unit finishing twice) are received but
  // not assimilated; every assimilation observes alpha_mix_s once.
  const std::uint64_t assimilated = hist_count(S, "assimilator.alpha_mix_s");
  const std::uint64_t applied = counter(S, "assimilator.updates_applied");
  auto store = make_store(spec.store);
  FileServer files;
  files.set_wire_codec(mode, spec.wire_version_ring);
  Acc store_get, store_put, decode, blend, publish, validate, serde;
  std::uint64_t frames = 0;
  std::vector<std::string> keys;
  for (std::size_t s = 0; s < plan.shards(); ++s) keys.push_back(plan.shard_key("params", s));
  {
    const auto t = Clock::now();
    files.publish("arch", in.arch, /*compress=*/true);
    for (std::size_t s = 0; s < in.shard_blobs.size(); ++s) {
      files.publish("shard/" + std::to_string(s), in.shard_blobs[s], /*compress=*/true);
    }
    publish.s += since(t);
  }
  // publish_initial writes and publishes every plane shard; the trainer's
  // initial checkpoint reads each back.
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    Blob blob = save_params(plan.view(initial_span, s));
    store->put(keys[s], blob, 0);
    files.publish(keys[s], std::move(blob), true, mode != WireMode::full);
  }
  for (const auto& key : keys) (void)store->get(key);

  Model eval_model = in.model;
  Rng validation_rng(mix64(spec.seed, 0xEAA1));
  const double alpha = make_alpha_schedule(spec.alpha)->alpha(1);
  std::vector<float> server_params = initial;
  std::vector<float> client_params;
  for (std::uint64_t r = drift ? 1 : 0; r < assimilated; ++r) {
    std::vector<std::uint64_t> versions(plan.shards());
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      auto t = Clock::now();
      const auto current = store->get(keys[s]);
      store_get.add(since(t));
      t = Clock::now();
      const std::vector<float> slice = load_params(current->value);
      std::copy(slice.begin(), slice.end(),
                plan.view(std::span<float>(server_params), s).begin());
      versions[s] = current->version;
      serde.add(since(t));
    }
    auto t = Clock::now();
    frames += decode_upload(upload, plan, initial_span, client_params);
    decode.add(since(t));
    if (r < applied) {
      for (std::size_t s = 0; s < plan.shards(); ++s) {
        t = Clock::now();
        vcasgd_update(plan.view(std::span<float>(server_params), s),
                      plan.view(std::span<const float>(client_params), s), alpha);
        blend.add(since(t));
      }
      for (std::size_t s = 0; s < plan.shards(); ++s) {
        t = Clock::now();
        Blob blob = save_params(plan.view(std::span<const float>(server_params), s));
        serde.add(since(t));
        t = Clock::now();
        store->put(keys[s], blob, versions[s]);
        store_put.add(since(t));
        t = Clock::now();
        files.publish(keys[s], std::move(blob), true, mode != WireMode::full);
        publish.add(since(t));
      }
    }
    t = Clock::now();
    eval_model.set_flat_params(server_params);
    (void)evaluate_accuracy_subsample(eval_model, in.data.validation,
                                      spec.validation_subsample, validation_rng, exec);
    validate.add(since(t));
  }

  // --- core: epoch-end evaluation of the published copy -------------------
  Acc epoch_eval;
  for (std::size_t e = 0; e < run.epochs.size(); ++e) {
    const auto t = Clock::now();
    eval_model.set_flat_params(server_params);
    (void)evaluate_accuracy(eval_model, in.data.validation, exec);
    (void)evaluate_accuracy(eval_model, in.data.test, exec);
    epoch_eval.add(since(t));
  }

  // --- self-consistency: the replay issued what the run issued -------------
  {
    const obs::MetricsSnapshot R = obs::registry().snapshot();
    // Every forward/backward of the run — local training, per-result
    // validation, epoch evaluation — goes through the GEMM entry points, so
    // equal GEMM counts mean equal train steps and validations.
    expect_eq("tensor.gemm_calls (train steps + validations + epoch evals)",
              hist_count(R, "exec.gemm_s"), hist_count(S, "exec.gemm_s"));
    expect_eq("tensor.pool_dispatches", hist_count(R, "exec.pool_wait_s"),
              hist_count(S, "exec.pool_wait_s"));
    expect_eq("wire_codec.frames (decoded + base misses)", frames,
              counter(S, "wire_codec.frames_decoded") + counter(S, "wire_codec.base_misses"));
    expect_eq("store.reads", store->stats().reads, counter(S, "store.reads"));
    expect_eq("store.writes", store->stats().writes, counter(S, "store.writes"));
    expect_eq("store.reads (snapshot vs totals)", counter(S, "store.reads"), run.totals.store_reads);
    expect_eq("store.writes (snapshot vs totals)", counter(S, "store.writes"), run.totals.store_writes);
    expect_eq("file_server.publishes", counter(R, "file_server.publishes"),
              counter(S, "file_server.publishes"));
    expect_eq("core.validations (received - duplicate - invalid results)", validate.n,
              counter(S, "server.results_received") - counter(S, "server.results_duplicate") -
                  counter(S, "server.results_invalid"));
  }

  // --- tensor: the model's GEMM shapes, one step's call mix ----------------
  std::vector<GemmShape> shapes;
  {
    const Dataset& shard = in.shards.shards[0];
    std::vector<std::size_t> idx(std::min(spec.batch_size, shard.size()));
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    Tensor x = shard.gather_tensor(idx);
    for (std::size_t i = 0; i < layers; ++i) {
      collect_gemms(worker.layer(i), x, exec, shapes);
      x = worker.layer(i).forward(x, exec, /*training=*/false);
    }
  }
  std::map<Gemm, double> gemm_s = time_gemms(shapes, pool.get());

  // --- wire codec / blob / compress / obs micro-timings --------------------
  // The file server hashes, compresses and delta-encodes one parameter file
  // per plane shard; time each shard's file and average.
  double pull_delta_s = 0.0, hash_s = 0.0;
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    const Blob base = save_params(plan.view(initial_span, s));
    const Blob target = save_params(plan.view(std::span<const float>(server_params), s));
    pull_delta_s += per_call([&] { (void)delta_encode(base.view(), target.view()); }, 20, 0.01);
    hash_s += per_call([&] { (void)target.hash(); }, 100, 0.005);
  }
  pull_delta_s /= static_cast<double>(plan.shards());
  hash_s /= static_cast<double>(plan.shards());
  const Blob params_blob = save_params(std::span<const float>(server_params));
  const double compress_s = per_call([&] { (void)compress(params_blob); }, 20, 0.02);
  const double mib = static_cast<double>(params_blob.size()) / (1024.0 * 1024.0);
  obs::Histogram probe({0.0, 0.05, 50});
  std::uint64_t probe_i = 0;
  const double observe_s = per_call(
      [&] {
        for (int i = 0; i < 1000; ++i) probe.observe(static_cast<double>(++probe_i % 97) * 1e-4);
      },
      100, 0.01) / 1000.0;

  // --- grid + sim: control-plane stub replay -------------------------------
  // A parameter server's mean virtual time per result over the run: the
  // Pn servers share the job's results.
  const std::uint64_t completed = counter(S, "client.completed");
  const SimTime hold_s =
      assimilated == 0 ? 0.0
                       : run.totals.duration_s * static_cast<double>(spec.parameter_servers) /
                             static_cast<double>(assimilated);
  const ControlPlane cp = replay_control_plane(
      spec, in, plan, server_params,
      completed == 0 ? upload.size() : counter(S, "client.bytes_uploaded") / completed,
      hold_s);

  // --- report ---------------------------------------------------------------
  const std::uint64_t steps = fwd.n;
  const double epochs = static_cast<double>(std::max<std::size_t>(1, run.epochs.size()));
  std::uint64_t observations = 0;
  for (const auto& [name, h] : S.histograms) observations += h.count;
  const std::uint64_t delta_pulls = counter(S, "file_server.delta_pulls");

  add("nn.fwd_ms", fwd.mean() * 1e3, "ms");
  add("nn.bwd_ms", bwd.mean() * 1e3, "ms");
  add("nn.opt_ms", opt.mean() * 1e3, "ms");
  add("nn.train_steps", static_cast<double>(steps), "count");
  add("nn.train_s", train_s, "s");
  add("nn.train_share", ratio(train_s, run_wall_s), "fraction");
  add("tensor.matmul_us", gemm_s[Gemm::matmul] * 1e6, "us");
  add("tensor.at_b_us", gemm_s[Gemm::at_b] * 1e6, "us");
  add("tensor.a_bt_us", gemm_s[Gemm::a_bt] * 1e6, "us");
  add("tensor.gemm_calls", static_cast<double>(hist_count(S, "exec.gemm_s")), "count");
  add("tensor.pool_dispatches", static_cast<double>(hist_count(S, "exec.pool_wait_s")), "count");
  add("core.validate_ms", validate.mean() * 1e3, "ms");
  add("core.validations", static_cast<double>(validate.n), "count");
  add("core.epoch_eval_ms", epoch_eval.mean() * 1e3, "ms");
  add("core.blend_us", blend.mean() * 1e6, "us");
  add("wire_codec.encode_us", encode.mean() * 1e6, "us");
  add("wire_codec.decode_us", decode.mean() * 1e6, "us");
  add("wire_codec.pull_delta_us", pull_delta_s * 1e6, "us");
  add("wire_codec.frames", static_cast<double>(counter(S, "wire_codec.frames_decoded")), "count");
  add("blob.hash_us", hash_s * 1e6, "us");
  add("compress.us_per_mib", compress_s * 1e6 / mib, "us/MiB");
  add("file_server.fetches", static_cast<double>(counter(S, "file_server.fetches")), "count");
  add("file_server.publishes", static_cast<double>(counter(S, "file_server.publishes")), "count");
  add("file_server.cache_hit_ratio",
      ratio(static_cast<double>(counter(S, "file_server.cache_hits")),
            static_cast<double>(counter(S, "file_server.fetches") + counter(S, "file_server.cache_hits"))),
      "fraction");
  add("file_server.bytes_wire_per_epoch",
      static_cast<double>(counter(S, "file_server.bytes_wire")) / epochs, "bytes");
  add("store.get_us", store_get.mean() * 1e6, "us");
  add("store.put_us", store_put.mean() * 1e6, "us");
  add("store.reads", static_cast<double>(counter(S, "store.reads")), "count");
  add("store.writes", static_cast<double>(counter(S, "store.writes")), "count");
  add("store.lost_update_ratio",
      ratio(static_cast<double>(counter(S, "store.lost_updates")),
            static_cast<double>(counter(S, "store.writes"))),
      "fraction");
  add("sim.events", static_cast<double>(cp.events), "count");
  add("sim.events_per_s", ratio(static_cast<double>(cp.events), cp.seconds), "1/s");
  add("grid.control_plane_s", cp.seconds, "s");
  add("grid.polls", static_cast<double>(cp.polls), "count");
  add("grid.useful_ratio",
      ratio(static_cast<double>(applied), static_cast<double>(executed)), "fraction");
  add("grid.timeouts", static_cast<double>(counter(S, "scheduler.failure.timeout")), "count");
  add("obs.observations", static_cast<double>(observations), "count");
  add("obs.observe_ns", observe_s * 1e9, "ns");
  add("data.synth_s", in.synth_s, "s");
  add("data.shards_s", in.shards_s, "s");
  add("data.gather_us", gather.mean() * 1e6, "us");

  for (std::size_t i = 0; i < layers; ++i) {
    const std::string name = layer_name(i, worker.layer(i).kind());
    rep.layer_table.push_back({name + ".fwd_ms", layer_fwd[i].mean() * 1e3, "ms"});
    rep.layer_table.push_back({name + ".bwd_ms", layer_bwd[i].mean() * 1e3, "ms"});
  }

  // Seconds the run spent per module, as replayed. Kernel-level obs spans
  // are inside the nn/tensor seconds already, so obs is not added again.
  rep.seconds = {
      {"setup", in.synth_s + in.shards_s + in.model_s, "s"},
      {"nn.train", train_s, "s"},
      {"core.validate", validate.s, "s"},
      {"core.epoch_eval", epoch_eval.s, "s"},
      {"core.blend", blend.s, "s"},
      {"wire_codec", encode.s + decode.s + pull_delta_s * static_cast<double>(delta_pulls), "s"},
      {"model_io", serde.s, "s"},
      {"store", store_get.s + store_put.s, "s"},
      {"file_server.publish", publish.s, "s"},
      {"grid.control_plane", cp.seconds, "s"},
  };
  double attributed = 0.0;
  for (const Metric& m : rep.seconds) attributed += m.value;
  add("attributed_share", ratio(attributed, run_wall_s), "fraction");
  return rep;
}

}  // namespace vcbench
