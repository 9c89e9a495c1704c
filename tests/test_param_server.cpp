// Isolated tests of the VC-ASGD assimilator: Eq. (1) semantics through the
// store, the consistency-dependent race behaviour of overlapping
// parameter-server workers in virtual time, and the wire-codec upload decode
// path (base ring hits, hash-guarded misses, drop semantics).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/param_server.hpp"
#include "data/synthetic.hpp"
#include "nn/model_io.hpp"
#include "nn/model_zoo.hpp"
#include "storage/eventual_store.hpp"
#include "storage/strong_store.hpp"
#include "testing/local_registry.hpp"

namespace vcdl {
namespace {

struct PsHarness {
  testing::LocalRegistry metrics;  // first: every component below counts here
  SimEngine engine;
  TraceLog trace;
  Scheduler scheduler;
  FileServer files;
  std::unique_ptr<KvStore> store;
  std::unique_ptr<GridServer> server;
  std::unique_ptr<ConstantAlpha> schedule;
  std::unique_ptr<VcAsgdAssimilator> assimilator;
  SyntheticData data;
  Model model;
  std::vector<double> accs;  // per-assimilation validation accuracies

  explicit PsHarness(const std::string& store_kind, double alpha = 0.5,
                     std::size_t num_ps = 2, WireMode wire = WireMode::full,
                     std::size_t version_ring = 8, ShardPlan plan = {})
      : store(make_store(store_kind)),
        data(make_synthetic_cifar({.height = 8,
                                   .width = 8,
                                   .train = 40,
                                   .validation = 40,
                                   .test = 10,
                                   .seed = 3})),
        model(make_resnet_lite(
            {.height = 8, .width = 8, .base_filters = 4, .blocks = 1}, 5)) {
    server = std::make_unique<GridServer>(engine, scheduler, trace, num_ps,
                                          [](const Blob&) { return true; });
    schedule = std::make_unique<ConstantAlpha>(alpha);
    VcAsgdAssimilator::Options opts;
    opts.validation_subsample = 16;
    opts.wire_mode = wire;
    opts.version_ring = version_ring;
    opts.plan = std::move(plan);
    assimilator = std::make_unique<VcAsgdAssimilator>(
        engine, *store, files, *server, *schedule, model, data.validation,
        table1_catalog().server, opts, trace, Rng(1),
        [this](std::size_t, double acc) { accs.push_back(acc); });
    server->set_backend(assimilator.get());
    assimilator->publish_initial(model.flat_params());
  }

  // Feeds a client result straight into the server at the current time.
  void submit(WorkunitId id, ClientId client, const std::vector<float>& params) {
    submit_payload(id, client, save_params(std::span<const float>(params)));
  }

  // Same, but with a caller-encoded payload (wire frames).
  void submit_payload(WorkunitId id, ClientId client, Blob payload) {
    scheduler.register_client(client);
    Workunit wu;
    wu.id = id;
    wu.epoch = 1;
    wu.shard = static_cast<std::size_t>(id);
    scheduler.add_unit(wu);
    // Pull so the scheduler knows about the assignment.
    (void)scheduler.request_work(client, 1, engine.now());
    server->submit_result(client, wu, std::move(payload));
  }

  std::vector<float> stored_params() {
    const auto v = store->get("params");
    return load_params(v->value);
  }
};

TEST(ParamServer, SingleResultAppliesEquationOne) {
  PsHarness h("eventual", /*alpha=*/0.5);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client = w0;
  for (auto& v : client) v += 2.0f;
  h.submit(1, 0, client);
  h.engine.run();
  const auto w1 = h.stored_params();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * w0[i] + 0.5f * client[i], 1e-5f);
  }
  ASSERT_EQ(h.accs.size(), 1u);
  EXPECT_GE(h.accs[0], 0.0);
  EXPECT_LE(h.accs[0], 1.0);
}

TEST(ParamServer, AlphaOneFreezesServer) {
  PsHarness h("eventual", /*alpha=*/0.999);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client(w0.size(), 100.0f);
  h.submit(1, 0, client);
  h.engine.run();
  const auto w1 = h.stored_params();
  // Only 0.1% moved toward the client copy.
  EXPECT_NEAR(w1[0], 0.999f * w0[0] + 0.1f, 0.01f);
}

TEST(ParamServer, OverlappingEventualWorkersLoseAnUpdate) {
  // Two results arrive simultaneously at two workers of a Redis-like store:
  // both read version 1, both write — the second write clobbers the first
  // (LWW), and the store counts the lost update. This is the §III-D race,
  // reproduced in virtual time.
  PsHarness h("eventual", 0.5, /*num_ps=*/2);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> a(w0.size(), 1.0f), b(w0.size(), -1.0f);
  h.submit(1, 0, a);
  h.submit(2, 1, b);
  h.engine.run();
  EXPECT_EQ(h.store->stats().lost_updates, 1u);
  // LWW: the surviving copy is w0 blended with exactly one client (the one
  // whose write landed last), not both.
  const auto w1 = h.stored_params();
  const float expect_b = 0.5f * w0[0] + 0.5f * b[0];
  const float expect_a = 0.5f * w0[0] + 0.5f * a[0];
  const bool matches_one = std::abs(w1[0] - expect_b) < 1e-5f ||
                           std::abs(w1[0] - expect_a) < 1e-5f;
  EXPECT_TRUE(matches_one);
  EXPECT_EQ(h.accs.size(), 2u);  // both still validated and reported
}

TEST(ParamServer, OverlappingStrongWorkersSerialize) {
  // The same overlap against a MySQL-like store: the transaction lock
  // serializes the two read-modify-writes; both contributions survive.
  PsHarness h("strong", 0.5, /*num_ps=*/2);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> a(w0.size(), 1.0f), b(w0.size(), -1.0f);
  h.submit(1, 0, a);
  h.submit(2, 1, b);
  h.engine.run();
  EXPECT_EQ(h.store->stats().lost_updates, 0u);
  const auto w1 = h.stored_params();
  // Order-independent here because a = -b: 0.25*w0 + 0.5*second + 0.25*first.
  const float expected = 0.25f * w0[0] + 0.25f * a[0] + 0.5f * b[0];
  const float expected_rev = 0.25f * w0[0] + 0.25f * b[0] + 0.5f * a[0];
  EXPECT_TRUE(std::abs(w1[0] - expected) < 1e-5f ||
              std::abs(w1[0] - expected_rev) < 1e-5f);
}

TEST(ParamServer, StrongUpdateTakesLongerThanEventual) {
  PsHarness eventual("eventual");
  PsHarness strong("strong");
  const std::vector<float> client(eventual.model.flat_params().size(), 1.0f);
  eventual.submit(1, 0, client);
  strong.submit(1, 0, client);
  const SimTime t_eventual = eventual.engine.run();
  const SimTime t_strong = strong.engine.run();
  EXPECT_GT(t_strong, t_eventual);  // 1.29 s vs 0.87 s store cost
}

// --- Wire-codec upload decode path -------------------------------------------

TEST(ParamServerWire, RingedDeltaFrameBlendsBitExact) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client = w0;
  for (auto& v : client) v += 0.25f;
  const std::uint64_t decoded_before =
      h.metrics.count("wire_codec.frames_decoded");
  h.submit_payload(1, 0,
                   encode_params_delta(w0, client, h.assimilator->commits()));
  h.engine.run();
  EXPECT_EQ(h.metrics.count("wire_codec.frames_decoded"), decoded_before + 1);
  const auto w1 = h.stored_params();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * w0[i] + 0.5f * client[i], 1e-6f);
  }
  EXPECT_EQ(h.accs.size(), 1u);
}

// High-severity regression: a lossless delta frame whose base is not in the
// ring must be DROPPED, not decoded against the current published copy —
// bit-space word diffs applied to a different base yield arbitrary floats
// that the α-blend would absorb with no finiteness check.
TEST(ParamServerWire, RingMissedDeltaUploadIsDroppedNotMisapplied) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta);
  const std::vector<float> w0 = h.model.flat_params();
  // Encoded against a base the server never published.
  std::vector<float> foreign_base(w0.size(), 123.0f);
  std::vector<float> client = foreign_base;
  for (auto& v : client) v += 0.01f;
  const std::uint64_t dropped_before =
      h.metrics.count("wire_codec.frames_dropped");
  const std::uint64_t misses_before = h.metrics.count("wire_codec.base_misses");
  h.submit_payload(1, 0,
                   encode_params_delta(foreign_base, client, /*version=*/999));
  h.engine.run();
  EXPECT_EQ(h.metrics.count("wire_codec.frames_dropped"), dropped_before + 1);
  EXPECT_EQ(h.metrics.count("wire_codec.base_misses"), misses_before + 1);
  // Server params untouched; the result still validated + reported so the
  // epoch bookkeeping cannot stall on a dropped upload.
  EXPECT_EQ(h.stored_params(), w0);
  EXPECT_EQ(h.assimilator->published_params(), w0);
  ASSERT_EQ(h.accs.size(), 1u);
}

// High-severity regression: checkpoint replay rewinds the published params
// while commits_ stays put, so a pre-crash in-flight upload can carry a
// base_version that *matches* a post-replay ring entry holding different
// params. The frame's base_hash must turn that into a miss (→ drop for a
// lossless delta), never a silent wrong-base hit.
TEST(ParamServerWire, ReplayReusedVersionIsHashMissNotWrongBaseHit) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta);
  const std::vector<float> pre_crash = h.model.flat_params();
  std::vector<float> client = pre_crash;
  for (auto& v : client) v += 0.5f;
  // Encoded before the crash, against the version the ring currently holds.
  const Blob in_flight =
      encode_params_delta(pre_crash, client, h.assimilator->commits());
  // Crash + checkpoint replay: different params, same commit count.
  std::vector<float> replayed = pre_crash;
  for (auto& v : replayed) v -= 1.0f;
  h.assimilator->publish_initial(replayed);
  ASSERT_EQ(h.assimilator->commits(), 0u);  // version number reused

  const std::uint64_t hits_before =
      h.metrics.count("wire_codec.frames_decoded");
  const std::uint64_t dropped_before =
      h.metrics.count("wire_codec.frames_dropped");
  h.submit_payload(1, 0, in_flight);
  h.engine.run();
  EXPECT_EQ(h.metrics.count("wire_codec.frames_decoded"), hits_before);
  EXPECT_EQ(h.metrics.count("wire_codec.frames_dropped"), dropped_before + 1);
  EXPECT_EQ(h.stored_params(), replayed);
}

// q8 frames carry float-space diffs, so the ring-miss fallback (apply to the
// current published copy) genuinely degrades to plain update application.
TEST(ParamServerWire, RingMissedQ8UploadDegradesToUpdateApplication) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta_q8);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client = w0;
  for (auto& v : client) v += 0.25f;
  const std::uint64_t misses_before = h.metrics.count("wire_codec.base_misses");
  // Right base params, aged-out version number: hash never gets checked
  // because the version lookup already misses.
  h.submit_payload(1, 0, encode_params_q8(w0, client, /*version=*/999));
  h.engine.run();
  EXPECT_EQ(h.metrics.count("wire_codec.base_misses"), misses_before + 1);
  const auto w1 = h.stored_params();
  // The uniform +0.25 diff quantizes exactly (every block has lo == hi), so
  // the fallback blend matches Eq. (1) up to float arithmetic.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * w0[i] + 0.5f * client[i], 1e-3f);
  }
  ASSERT_EQ(h.accs.size(), 1u);
}

// Low-severity regression: a unit that runs as several replicas (redundancy
// or timeout reissue) records one exec base per replica; an *earlier*
// replica's base must stay pinned in the ring — and decodable — even after
// a later replica re-records the unit and other commits churn the ring.
TEST(ParamServerWire, EarlierReplicaBaseStaysPinnedAcrossRingChurn) {
  PsHarness h("eventual", 0.5, /*num_ps=*/1, WireMode::delta,
              /*version_ring=*/1);
  const std::vector<float> w0 = h.model.flat_params();
  // Replica A of unit 42 starts at commit 0 and trains from w0.
  h.assimilator->note_exec_base(42);
  std::vector<float> client_a = w0;
  for (auto& v : client_a) v += 0.125f;
  const Blob frame_a =
      encode_params_delta(w0, client_a, h.assimilator->commits());

  // Other units commit twice; with version_ring=1 everything unpinned ages
  // out. Replica B of unit 42 then starts from a later commit.
  std::vector<float> other(w0.size(), 0.5f);
  h.submit(7, 1, other);
  h.engine.run();
  h.assimilator->note_exec_base(42);  // replica B; must not unpin commit 0
  h.submit(8, 1, other);
  h.engine.run();
  ASSERT_EQ(h.assimilator->commits(), 2u);

  // Replica A's result arrives first and must decode bit-exact against the
  // still-pinned commit-0 base.
  const std::uint64_t dropped_before =
      h.metrics.count("wire_codec.frames_dropped");
  const std::uint64_t decoded_before =
      h.metrics.count("wire_codec.frames_decoded");
  const std::vector<float> before = h.stored_params();
  h.submit_payload(42, 0, frame_a);
  h.engine.run();
  EXPECT_EQ(h.metrics.count("wire_codec.frames_dropped"), dropped_before);
  EXPECT_EQ(h.metrics.count("wire_codec.frames_decoded"), decoded_before + 1);
  const auto w1 = h.stored_params();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * before[i] + 0.5f * client_a[i], 1e-6f);
  }
}

// --- Every upload decode outcome, pinned -------------------------------------
//
// One table over {bare frame at 1 shard, 4-part bundle at 4 shards, bare frame
// at 4 shards, 2-part bundle at 4 shards, bare frame over shard 0's slice at
// 4 shards, 4-part bundle whose part 1 is one float short} x {delta,
// delta_q8} x {ring hit, ring miss} x {decode, peek}. A decode row records the published params
// after the blend (or "nullopt" when the upload was dropped) and the deltas
// of the wire_codec counters and of every shard_wire_stats() entry; a peek
// row records the peeked vector and the same deltas (which must stay zero).

ShardPlan four_shard_plan(Model& model) {
  std::vector<std::size_t> sizes(model.layer_count());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    for (const Tensor* t : model.layer(i).params()) sizes[i] += t->numel();
  }
  return ShardPlan::build(sizes, 4);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

enum class UploadShape {
  bare_1shard,
  bundle_4shard,
  bare_4shard,
  short_bundle,
  slice_bare,
  wrong_count_part
};

std::string decode_outcome(UploadShape shape, WireMode mode, bool ring_hit,
                           bool peek) {
  const bool four = shape != UploadShape::bare_1shard;
  Model model = make_resnet_lite(
      {.height = 8, .width = 8, .base_filters = 4, .blocks = 1}, 5);
  const ShardPlan plan = four ? four_shard_plan(model)
                              : ShardPlan::single(model.parameter_count());
  EXPECT_EQ(plan.shards(), four ? 4u : 1u);
  PsHarness h("eventual", 0.5, 1, mode, 8, plan);
  // A hit encodes against the published copy at the current commit; a miss
  // against a foreign base under an unknown version, so a q8 fallback decode
  // shows which base it landed on.
  std::vector<float> base = h.assimilator->published_params();
  if (!ring_hit) {
    for (float& v : base) v += 0.5f;
  }
  std::vector<float> client = base;
  for (std::size_t i = 0; i < client.size(); ++i) {
    client[i] += 0.01f * static_cast<float>(i % 17) - 0.05f;
  }
  const std::uint64_t version = ring_hit ? h.assimilator->commits() : 999;
  const auto encode = [&](std::span<const float> b, std::span<const float> t) {
    return mode == WireMode::delta ? encode_params_delta(b, t, version)
                                   : encode_params_q8(b, t, version);
  };
  Blob payload;
  if (shape == UploadShape::bare_1shard || shape == UploadShape::bare_4shard) {
    payload = encode(base, client);
  } else if (shape == UploadShape::slice_bare) {
    payload = encode(plan.view(std::span<const float>(base), 0),
                     plan.view(std::span<const float>(client), 0));
  } else {
    std::vector<Blob> parts;
    const std::size_t n = shape == UploadShape::short_bundle ? 2 : 4;
    for (std::size_t s = 0; s < n; ++s) {
      auto b = plan.view(std::span<const float>(base), s);
      auto t = plan.view(std::span<const float>(client), s);
      if (shape == UploadShape::wrong_count_part && s == 1) {
        b = b.first(b.size() - 1);
        t = t.first(t.size() - 1);
      }
      parts.push_back(encode(b, t));
    }
    payload = pack_shard_frames(parts);
  }

  const char* names[] = {"wire_codec.frames_decoded", "wire_codec.base_misses",
                         "wire_codec.frames_dropped",
                         "assimilator.updates_applied"};
  std::uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = h.metrics.count(names[i]);
  std::string out;
  if (peek) {
    const auto peeked = h.assimilator->peek_decode(payload);
    out = peeked ? hex(params_hash(*peeked)) : "nullopt";
  } else {
    h.submit_payload(1, 0, payload);
    h.engine.run();
    const bool applied = h.metrics.count(names[3]) > before[3];
    out = applied ? hex(params_hash(h.assimilator->published_params()))
                  : "nullopt";
  }
  for (int i = 0; i < 3; ++i) {
    out += " " + std::to_string(h.metrics.count(names[i]) - before[i]);
  }
  for (const auto& st : h.assimilator->shard_wire_stats()) {
    out += " " + std::to_string(st.frames_decoded) + "/" +
           std::to_string(st.base_misses) + "/" +
           std::to_string(st.frames_dropped);
  }
  return out;
}

TEST(ParamServerWire, EveryDecodeOutcomeIsPinned) {
  struct Row {
    UploadShape shape;
    WireMode mode;
    bool hit;
    bool peek;
    const char* expected;
  };
  using enum UploadShape;
  constexpr WireMode d = WireMode::delta, q = WireMode::delta_q8;
  // Captured from the three separate decoders (bare frame, bundle, peek)
  // that one per-part loop replaced; the loop must reproduce every row.
  const std::vector<Row> rows = {
      {bare_1shard, d, true, false,
       "6a66d1bd56fb3b19 1 0 0 1/0/0"},
      {bare_1shard, d, true, true,
       "8a688f54fab35d7d 0 0 0 0/0/0"},
      {bare_1shard, d, false, false,
       "nullopt 0 1 1 0/1/1"},
      {bare_1shard, d, false, true,
       "nullopt 0 0 0 0/0/0"},
      {bare_1shard, q, true, false,
       "4ae04ad67092f1db 1 0 0 1/0/0"},
      {bare_1shard, q, true, true,
       "905acf4caa6fe2ba 0 0 0 0/0/0"},
      {bare_1shard, q, false, false,
       "4ae04ad67092f1db 0 1 0 0/1/0"},
      {bare_1shard, q, false, true,
       "nullopt 0 0 0 0/0/0"},
      {bundle_4shard, d, true, false,
       "6a66d1bd56fb3b19 4 0 0 1/0/0 1/0/0 1/0/0 1/0/0"},
      {bundle_4shard, d, true, true,
       "8a688f54fab35d7d 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bundle_4shard, d, false, false,
       "nullopt 0 1 1 0/1/1 0/0/0 0/0/0 0/0/0"},
      {bundle_4shard, d, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bundle_4shard, q, true, false,
       "4ae04ad67092f1db 4 0 0 1/0/0 1/0/0 1/0/0 1/0/0"},
      {bundle_4shard, q, true, true,
       "905acf4caa6fe2ba 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bundle_4shard, q, false, false,
       "4ae04ad67092f1db 0 4 0 0/1/0 0/1/0 0/1/0 0/1/0"},
      {bundle_4shard, q, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, d, true, false,
       "nullopt 0 1 1 0/1/1 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, d, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, d, false, false,
       "nullopt 0 1 1 0/1/1 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, d, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, q, true, false,
       "4ae04ad67092f1db 0 1 0 0/1/0 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, q, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, q, false, false,
       "4ae04ad67092f1db 0 1 0 0/1/0 0/0/0 0/0/0 0/0/0"},
      {bare_4shard, q, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, d, true, false,
       "nullopt 0 0 1 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, d, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, d, false, false,
       "nullopt 0 0 1 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, d, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, q, true, false,
       "nullopt 0 0 1 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, q, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, q, false, false,
       "nullopt 0 0 1 0/0/0 0/0/0 0/0/0 0/0/0"},
      {short_bundle, q, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      // Wrong-count parts are dropped before any base lookup, so none of
      // these reaches ShardPlan::view or decode_params (both would throw out
      // of the engine).
      {slice_bare, d, true, false,
       "nullopt 0 0 1 0/0/1 0/0/0 0/0/0 0/0/0"},
      {slice_bare, d, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {slice_bare, d, false, false,
       "nullopt 0 0 1 0/0/1 0/0/0 0/0/0 0/0/0"},
      {slice_bare, d, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {slice_bare, q, true, false,
       "nullopt 0 0 1 0/0/1 0/0/0 0/0/0 0/0/0"},
      {slice_bare, q, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {slice_bare, q, false, false,
       "nullopt 0 0 1 0/0/1 0/0/0 0/0/0 0/0/0"},
      {slice_bare, q, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {wrong_count_part, d, true, false,
       "nullopt 1 0 1 1/0/0 0/0/1 0/0/0 0/0/0"},
      {wrong_count_part, d, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {wrong_count_part, d, false, false,
       "nullopt 0 1 1 0/1/1 0/0/0 0/0/0 0/0/0"},
      {wrong_count_part, d, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {wrong_count_part, q, true, false,
       "nullopt 1 0 1 1/0/0 0/0/1 0/0/0 0/0/0"},
      {wrong_count_part, q, true, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
      {wrong_count_part, q, false, false,
       "nullopt 0 1 1 0/1/0 0/0/1 0/0/0 0/0/0"},
      {wrong_count_part, q, false, true,
       "nullopt 0 0 0 0/0/0 0/0/0 0/0/0 0/0/0"},
  };
  ASSERT_EQ(rows.size(), 48u);
  for (const Row& r : rows) {
    EXPECT_EQ(decode_outcome(r.shape, r.mode, r.hit, r.peek), r.expected)
        << "shape " << static_cast<int>(r.shape) << " mode "
        << wire_mode_name(r.mode) << (r.hit ? " hit" : " miss")
        << (r.peek ? " peek" : " decode");
  }
}

TEST(ParamServer, PublishesParameterFileEachCommit) {
  PsHarness h("eventual");
  const auto v0 = h.files.version("params");
  const std::vector<float> client(h.model.flat_params().size(), 1.0f);
  h.submit(1, 0, client);
  h.engine.run();
  EXPECT_EQ(h.files.version("params"), v0 + 1);
  // published_params() mirrors the file content.
  EXPECT_EQ(h.assimilator->published_params(), h.stored_params());
}

}  // namespace
}  // namespace vcdl
