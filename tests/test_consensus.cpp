// Byzantine-resilience tier: the replica-consensus buffer (grid/consensus.hpp),
// the adversary model (sim/faults.hpp), the scheduler's availability/integrity
// reputation split and adaptive replication, the grid-server integration
// (held replicas, crash recovery, fallback deadlines), the blend outlier
// guard, the consensus.* instrumentation-coverage contract — and the
// end-to-end determinism + minority-never-assimilated invariants, mutation-
// checked through grid_hooks::consensus_first_result_wins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/trainer.hpp"
#include "grid/consensus.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"
#include "grid/test_hooks.hpp"
#include "sim/faults.hpp"
#include "testing/generators.hpp"
#include "testing/local_registry.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using testing::PropConfig;
using testing::PropResult;
using testing::prop_assert;
using testing::run_property;
using testing::tiny_image_spec;

Workunit make_unit(WorkunitId id, SimTime deadline = 600.0,
                   std::size_t replication = 1) {
  Workunit wu;
  wu.id = id;
  wu.epoch = 1;
  wu.shard = 0;
  wu.deadline_s = deadline;
  wu.replication = replication;
  return wu;
}

Blob byte_payload(std::uint8_t fill, std::size_t n = 16) {
  return Blob(std::vector<std::uint8_t>(n, fill));
}

Blob float_payload(const std::vector<float>& vals) {
  std::vector<std::uint8_t> bytes(vals.size() * sizeof(float));
  std::memcpy(bytes.data(), vals.data(), bytes.size());
  return Blob(std::move(bytes));
}

std::optional<std::vector<float>> float_decoder(const Blob& payload) {
  if (payload.size() % sizeof(float) != 0) return std::nullopt;
  std::vector<float> out(payload.size() / sizeof(float));
  std::memcpy(out.data(), payload.data(), payload.size());
  return out;
}

// --- ConsensusBuffer: exact-hash mode ----------------------------------------

TEST(ConsensusBuffer, QuorumOfMatchingHashesPromotesEarliestReplica) {
  testing::LocalRegistry reg;
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.0}, nullptr);
  const Workunit wu = make_unit(1);
  auto first = buf.submit(wu, 7, byte_payload(0xAA), 1.0, 3);
  EXPECT_EQ(first.outcome, ConsensusBuffer::Outcome::held);
  EXPECT_TRUE(buf.holding(1));
  EXPECT_EQ(buf.held_count(1), 1u);

  auto second = buf.submit(wu, 3, byte_payload(0xAA), 2.0, 3);
  ASSERT_EQ(second.outcome, ConsensusBuffer::Outcome::promoted);
  ASSERT_TRUE(second.winner.has_value());
  // Canonical result is the winning class's *earliest* arrival.
  EXPECT_EQ(second.winner->client, 7u);
  EXPECT_EQ(second.winner->received_at, 1.0);
  EXPECT_EQ(second.agreeing, 2u);
  EXPECT_TRUE(second.outvoted.empty());
  EXPECT_FALSE(buf.holding(1));
  EXPECT_EQ(reg.count("consensus.quorum_promoted"), 1u);
  EXPECT_EQ(reg.count("consensus.replicas_held"), 2u);
}

TEST(ConsensusBuffer, DisagreeingMinorityIsOutvoted) {
  testing::LocalRegistry reg;
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.0}, nullptr);
  const Workunit wu = make_unit(1);
  (void)buf.submit(wu, 0, byte_payload(0xAA), 1.0, 3);
  auto liar = buf.submit(wu, 1, byte_payload(0xEE), 2.0, 3);
  EXPECT_EQ(liar.outcome, ConsensusBuffer::Outcome::held);  // 1-vs-1 so far
  auto third = buf.submit(wu, 2, byte_payload(0xAA), 3.0, 3);
  ASSERT_EQ(third.outcome, ConsensusBuffer::Outcome::promoted);
  EXPECT_EQ(third.winner->client, 0u);
  ASSERT_EQ(third.outvoted.size(), 1u);
  EXPECT_EQ(third.outvoted[0], 1u);
  EXPECT_EQ(reg.count("consensus.results_outvoted"), 1u);
}

TEST(ConsensusBuffer, AllRepliesWithoutQuorumFallBackToPlurality) {
  testing::LocalRegistry reg;
  // m = 3 but the three replicas split 2-vs-1: fallback, largest class wins.
  ConsensusBuffer buf({.quorum = 3, .tolerance = 0.0}, nullptr);
  const Workunit wu = make_unit(1);
  (void)buf.submit(wu, 0, byte_payload(0xAA), 1.0, 3);
  (void)buf.submit(wu, 1, byte_payload(0xAA), 2.0, 3);
  auto last = buf.submit(wu, 2, byte_payload(0xEE), 3.0, 3);
  ASSERT_EQ(last.outcome, ConsensusBuffer::Outcome::fallback);
  EXPECT_EQ(last.winner->client, 0u);
  EXPECT_EQ(last.agreeing, 2u);
  ASSERT_EQ(last.outvoted.size(), 1u);
  EXPECT_EQ(last.outvoted[0], 2u);
  EXPECT_EQ(reg.count("consensus.fallback_promoted"), 1u);
  EXPECT_EQ(reg.count("consensus.quorum_promoted"), 0u);
}

TEST(ConsensusBuffer, SameClientReuploadReplacesItsReplica) {
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.0}, nullptr);
  const Workunit wu = make_unit(1);
  (void)buf.submit(wu, 0, byte_payload(0xAA), 1.0, 3);
  // Timeout loops the unit back to client 0; its re-upload must not let it
  // vote twice.
  auto again = buf.submit(wu, 0, byte_payload(0xBB), 5.0, 3);
  EXPECT_EQ(again.outcome, ConsensusBuffer::Outcome::held);
  EXPECT_EQ(buf.held_count(1), 1u);
  auto match = buf.submit(wu, 1, byte_payload(0xBB), 6.0, 3);
  ASSERT_EQ(match.outcome, ConsensusBuffer::Outcome::promoted);
  EXPECT_EQ(match.winner->client, 0u);  // replacement kept arrival priority
  EXPECT_TRUE(match.outvoted.empty());
}

TEST(ConsensusBuffer, SoloReplicationPromotesInstantly) {
  // m = min(quorum, k): an adaptive solo grant (k = 1) never waits.
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.0}, nullptr);
  auto sub = buf.submit(make_unit(1), 4, byte_payload(0xAA), 1.0, 1);
  ASSERT_EQ(sub.outcome, ConsensusBuffer::Outcome::promoted);
  EXPECT_EQ(sub.winner->client, 4u);
  EXPECT_FALSE(buf.holding(1));
}

TEST(ConsensusBuffer, FlushPromotesPluralityAndEmptiesUnit) {
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.0}, nullptr);
  const Workunit wu = make_unit(1);
  (void)buf.submit(wu, 0, byte_payload(0xAA), 1.0, 3);
  (void)buf.submit(wu, 1, byte_payload(0xEE), 2.0, 3);
  // Deadline fires with the third replica missing: 1-vs-1, earliest class
  // wins the tie.
  auto sub = buf.flush(1);
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->outcome, ConsensusBuffer::Outcome::fallback);
  EXPECT_EQ(sub->winner->client, 0u);
  ASSERT_EQ(sub->outvoted.size(), 1u);
  EXPECT_EQ(sub->outvoted[0], 1u);
  EXPECT_FALSE(buf.holding(1));
  EXPECT_FALSE(buf.flush(1).has_value());  // nothing held any more
}

TEST(ConsensusBuffer, DrainReportsSortedHoldersAndClearsEverything) {
  testing::LocalRegistry reg;
  ConsensusBuffer buf({.quorum = 3, .tolerance = 0.0}, nullptr);
  (void)buf.submit(make_unit(1), 5, byte_payload(0xAA), 1.0, 3);
  (void)buf.submit(make_unit(1), 2, byte_payload(0xBB), 2.0, 3);
  (void)buf.submit(make_unit(9), 8, byte_payload(0xCC), 3.0, 3);
  EXPECT_EQ(buf.held_units(), 2u);
  EXPECT_EQ(buf.held_replicas(), 3u);

  const auto dropped = buf.drain();
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[0].first, 1u);
  EXPECT_EQ(dropped[0].second, (std::vector<ClientId>{2, 5}));
  EXPECT_EQ(dropped[1].first, 9u);
  EXPECT_EQ(dropped[1].second, (std::vector<ClientId>{8}));
  EXPECT_EQ(buf.held_units(), 0u);
  EXPECT_EQ(buf.held_replicas(), 0u);
  EXPECT_EQ(reg.count("consensus.replicas_flushed"), 3u);
}

// --- ConsensusBuffer: tolerance mode -----------------------------------------

TEST(ConsensusBuffer, ToleranceGroupsNearbyDecodedVectors) {
  // Honest replicas of the same unit are never bit-identical — they must
  // still land in one equivalence class under the relative-L2 tolerance.
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.05}, float_decoder);
  const Workunit wu = make_unit(1);
  const std::vector<float> honest = {1.0f, -2.0f, 3.0f, -4.0f};
  std::vector<float> nearby = honest;
  for (auto& v : nearby) v *= 1.01f;  // ~1% apart: inside tolerance
  std::vector<float> flipped = honest;
  for (auto& v : flipped) v = -v;     // deviation ≈ 2: far outside

  (void)buf.submit(wu, 0, float_payload(honest), 1.0, 3);
  auto attack = buf.submit(wu, 1, float_payload(flipped), 2.0, 3);
  EXPECT_EQ(attack.outcome, ConsensusBuffer::Outcome::held);
  auto second = buf.submit(wu, 2, float_payload(nearby), 3.0, 3);
  ASSERT_EQ(second.outcome, ConsensusBuffer::Outcome::promoted);
  EXPECT_EQ(second.winner->client, 0u);
  ASSERT_EQ(second.outvoted.size(), 1u);
  EXPECT_EQ(second.outvoted[0], 1u);
}

TEST(ConsensusBuffer, UndecodablePayloadsStaySingletonClasses) {
  // A 3-byte blob fails float_decoder: two of them must NOT pair up into a
  // bogus quorum — nullopt never matches nullopt.
  ConsensusBuffer buf({.quorum = 2, .tolerance = 0.05}, float_decoder);
  const Workunit wu = make_unit(1);
  const Blob junk(std::vector<std::uint8_t>{1, 2, 3});
  (void)buf.submit(wu, 0, junk, 1.0, 3);
  auto second = buf.submit(wu, 1, junk, 2.0, 3);
  EXPECT_EQ(second.outcome, ConsensusBuffer::Outcome::held);
  // The decodable pair still wins.
  auto third = buf.submit(wu, 2, float_payload({1.0f, 2.0f}), 3.0, 4);
  EXPECT_EQ(third.outcome, ConsensusBuffer::Outcome::held);
  auto fourth = buf.submit(wu, 3, float_payload({1.0f, 2.0f}), 4.0, 4);
  ASSERT_EQ(fourth.outcome, ConsensusBuffer::Outcome::promoted);
  EXPECT_EQ(fourth.winner->client, 2u);
  EXPECT_EQ(fourth.outvoted, (std::vector<ClientId>{0, 1}));
}

// --- Blend outlier guard ------------------------------------------------------

TEST(BlendOutlier, ZeroThresholdDisablesTheGuard) {
  const std::vector<float> ref = {1.0f, 2.0f};
  const std::vector<float> wild = {1e30f, -1e30f};
  EXPECT_FALSE(blend_outlier(ref, wild, 0.0));
}

TEST(BlendOutlier, SignFlipExceedsThresholdHonestDeltaDoesNot) {
  std::vector<float> ref(64);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = 0.1f * static_cast<float>(i % 7) - 0.3f;
  }
  std::vector<float> honest = ref;
  for (auto& v : honest) v += 0.01f;  // a small local-training delta
  std::vector<float> flipped = ref;
  for (auto& v : flipped) v = -v;  // relative deviation ≈ 2
  EXPECT_FALSE(blend_outlier(ref, honest, 1.0));
  EXPECT_TRUE(blend_outlier(ref, flipped, 1.0));
}

TEST(BlendOutlier, SizeMismatchAndNonFiniteAreOutliers) {
  const std::vector<float> ref = {1.0f, 2.0f, 3.0f};
  EXPECT_TRUE(blend_outlier(ref, {1.0f, 2.0f}, 1.0));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(blend_outlier(ref, {1.0f, inf, 3.0f}, 1.0));
}

// --- Adversary model ----------------------------------------------------------

TEST(AdversaryModel, SelectionIsSeededAndRoundsToNearest) {
  AdversaryPlan plan;
  plan.fraction = 0.5;
  AdversaryModel a(plan, 4, Rng(11));
  AdversaryModel b(plan, 4, Rng(11));
  EXPECT_EQ(a.adversaries().size(), 2u);
  EXPECT_EQ(a.adversaries(), b.adversaries());
  std::size_t flagged = 0;
  for (std::size_t c = 0; c < 4; ++c) flagged += a.is_adversary(c) ? 1 : 0;
  EXPECT_EQ(flagged, 2u);
  // A different seed picks a different subset eventually; at least the
  // stream must differ.
  AdversaryModel c(plan, 4, Rng(12));
  EXPECT_EQ(c.adversaries().size(), 2u);
}

// One attack on `params`: draw, then apply; true when it fired.
bool attack(AdversaryModel& adv, std::vector<float>& params,
            std::uint64_t unit) {
  const std::optional<Tamper> tamper = adv.draw(unit);
  if (tamper) tamper->apply(params);
  return tamper.has_value();
}

TEST(AdversaryModel, AttackModesCorruptAsDocumented) {
  testing::LocalRegistry reg;
  const std::vector<float> base = {1.0f, -2.0f, 0.5f};
  {
    AdversaryPlan plan;
    plan.fraction = 1.0;
    plan.mode = AttackMode::sign_flip;
    AdversaryModel adv(plan, 1, Rng(1));
    std::vector<float> p = base;
    EXPECT_TRUE(attack(adv, p, 1));
    EXPECT_EQ(p, (std::vector<float>{-1.0f, 2.0f, -0.5f}));
    EXPECT_EQ(reg.count("faults.byzantine_result"), 1u);
  }
  {
    AdversaryPlan plan;
    plan.fraction = 1.0;
    plan.mode = AttackMode::constant;
    plan.constant_value = 7.0f;
    AdversaryModel adv(plan, 1, Rng(1));
    std::vector<float> p = base;
    EXPECT_TRUE(attack(adv, p, 1));
    EXPECT_EQ(p, (std::vector<float>{7.0f, 7.0f, 7.0f}));
  }
  {
    AdversaryPlan plan;
    plan.fraction = 1.0;
    plan.mode = AttackMode::scale;
    plan.scale_factor = -2.0;
    AdversaryModel adv(plan, 1, Rng(1));
    std::vector<float> p = base;
    EXPECT_TRUE(attack(adv, p, 1));
    EXPECT_EQ(p, (std::vector<float>{-2.0f, 4.0f, -1.0f}));
  }
}

TEST(AdversaryModel, CollusionKeysNoiseByUnitIndependentsDiverge) {
  const std::vector<float> base(32, 1.0f);
  AdversaryPlan colluding;
  colluding.fraction = 1.0;
  colluding.mode = AttackMode::noise;
  colluding.collude = true;
  AdversaryModel ring(colluding, 2, Rng(5));
  std::vector<float> a = base, b = base;
  EXPECT_TRUE(attack(ring, a, 42));
  EXPECT_TRUE(attack(ring, b, 42));
  EXPECT_EQ(a, b);  // same unit → bit-identical lie (they can win a quorum)
  std::vector<float> other_unit = base;
  EXPECT_TRUE(attack(ring, other_unit, 43));
  EXPECT_NE(a, other_unit);

  AdversaryPlan independent = colluding;
  independent.collude = false;
  AdversaryModel lone(independent, 2, Rng(5));
  std::vector<float> x = base, y = base;
  EXPECT_TRUE(attack(lone, x, 42));
  EXPECT_TRUE(attack(lone, y, 42));
  EXPECT_NE(x, y);  // each attack draws its own noise: no accidental quorum
}

// --- Scheduler: availability/integrity split ---------------------------------

TEST(SchedulerReputation, InvalidResultHitsIntegrityOnly) {
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1));
  (void)s.request_work(0, 1, 0.0);
  const double avail = s.availability(0);
  const double integ = s.integrity(0);
  s.report_invalid(0, 1, 1.0);
  EXPECT_EQ(s.availability(0), avail);  // delivery record untouched
  EXPECT_LT(s.integrity(0), integ);
  EXPECT_EQ(s.reliability(0), std::min(s.availability(0), s.integrity(0)));
}

TEST(SchedulerReputation, TransferFailureHitsAvailabilityOnly) {
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1));
  (void)s.request_work(0, 1, 0.0);
  const double avail = s.availability(0);
  const double integ = s.integrity(0);
  s.report_failure(0, 1, 1.0);
  EXPECT_LT(s.availability(0), avail);
  EXPECT_EQ(s.integrity(0), integ);  // honesty record untouched
}

TEST(SchedulerReputation, AcceptedResultCreditsBothScores) {
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1));
  (void)s.request_work(0, 1, 0.0);
  const double avail = s.availability(0);
  const double integ = s.integrity(0);
  EXPECT_TRUE(s.report_result(0, 1, 1.0));
  EXPECT_GT(s.availability(0), avail);
  EXPECT_GT(s.integrity(0), integ);
}

// --- Scheduler: held replicas -------------------------------------------------

TEST(SchedulerReplicas, HeldReplicaDropsDeadlineButKeepsTheHold) {
  testing::LocalRegistry reg;
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1, /*deadline=*/50.0, /*replication=*/2));
  ASSERT_EQ(s.request_work(0, 1, 0.0).size(), 1u);
  s.report_replica(0, 1);
  EXPECT_EQ(s.inflight_count(), 0u);
  // No deadline may ever fire on an already-uploaded replica.
  EXPECT_TRUE(s.expire_deadlines(1000.0).empty());
  EXPECT_EQ(reg.count("scheduler.failure.timeout"), 0u);
  EXPECT_FALSE(s.is_retired(1));
  // The holder must not be handed the same unit again while quorum pends.
  EXPECT_TRUE(s.request_work(0, 1, 2.0).empty());
  EXPECT_EQ(s.stats().held_replicas, 1u);
}

TEST(SchedulerReplicas, ReissueReplicaMakesTheHolderEligibleAgain) {
  testing::LocalRegistry reg;
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1, 50.0, /*replication=*/1));
  ASSERT_EQ(s.request_work(0, 1, 0.0).size(), 1u);
  s.report_replica(0, 1);
  EXPECT_TRUE(s.request_work(0, 1, 1.0).empty());
  // Crash: the held replica is gone; the unit must become issuable again —
  // to its original holder too (it may be the only client).
  s.reissue_replica(1, 0);
  EXPECT_EQ(reg.count("scheduler.failure.replica_lost"), 1u);
  const auto again = s.request_work(0, 1, 2.0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].id, 1u);
  EXPECT_TRUE(s.report_result(0, 1, 3.0));
  EXPECT_TRUE(s.all_done());
}

// --- Scheduler: adaptive replication -----------------------------------------

TEST(AdaptiveReplication, NewClientTriggersFullRedundancy) {
  testing::LocalRegistry reg;
  Scheduler s;
  s.enable_adaptive_replication({.trust_threshold = 0.7,
                                 .untrusted_replication = 3,
                                 .spot_check_prob = 0.0},
                                Rng(1));
  s.register_client(0);
  s.register_client(1);
  s.register_client(2);
  s.add_unit(make_unit(1, 600.0, /*replication=*/1));
  // Fresh integrity (0.5) is below the threshold: the unit is raised to
  // k = 3 at first issue and two more clients can take replicas.
  ASSERT_EQ(s.request_work(0, 1, 0.0).size(), 1u);
  EXPECT_EQ(s.effective_replication(1), 3u);
  EXPECT_EQ(s.request_work(1, 1, 0.0).size(), 1u);
  EXPECT_EQ(s.request_work(2, 1, 0.0).size(), 1u);
  EXPECT_EQ(reg.count("consensus.solo_grants"), 0u);
}

// Three successes lift integrity 0.5 → 0.744 past the 0.7 threshold.
void build_trust(Scheduler& s, ClientId client, WorkunitId first_id) {
  for (WorkunitId id = first_id; id < first_id + 3; ++id) {
    s.add_unit(make_unit(id));
    const auto got = s.request_work(client, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].id, id);  // retired leftovers must not be re-granted
    EXPECT_TRUE(s.report_result(client, got[0].id, 1.0));
  }
  ASSERT_GE(s.integrity(client), 0.7);
}

TEST(AdaptiveReplication, TrustedClientEarnsSoloGrants) {
  testing::LocalRegistry reg;
  Scheduler s;
  s.enable_adaptive_replication({.trust_threshold = 0.7,
                                 .untrusted_replication = 3,
                                 .spot_check_prob = 0.0},
                                Rng(1));
  s.register_client(0);
  build_trust(s, 0, 1);
  const auto solos_before = reg.count("consensus.solo_grants");
  s.add_unit(make_unit(100, 600.0, /*replication=*/3));
  ASSERT_EQ(s.request_work(0, 1, 10.0).size(), 1u);
  // Trust overrides even an explicit replication-3 unit down to solo.
  EXPECT_EQ(s.effective_replication(100), 1u);
  EXPECT_EQ(reg.count("consensus.solo_grants"), solos_before + 1);
  EXPECT_TRUE(s.report_result(0, 100, 11.0));
  EXPECT_TRUE(s.all_done());
}

TEST(AdaptiveReplication, SpotCheckAuditsTrustedClient) {
  testing::LocalRegistry reg;
  Scheduler s;
  // Probability-1 audits make the draw deterministic.
  s.enable_adaptive_replication({.trust_threshold = 0.7,
                                 .untrusted_replication = 3,
                                 .spot_check_prob = 1.0},
                                Rng(1));
  s.register_client(0);
  build_trust(s, 0, 1);
  s.add_unit(make_unit(100, 600.0, /*replication=*/1));
  ASSERT_EQ(s.request_work(0, 1, 10.0).size(), 1u);
  // Audited despite the trust: full redundancy, counted as a spot check.
  EXPECT_EQ(s.effective_replication(100), 3u);
  EXPECT_EQ(reg.count("consensus.spot_checks"), 1u);
  EXPECT_EQ(reg.count("consensus.solo_grants"), 0u);
}

// --- GridServer integration ---------------------------------------------------

struct ConsensusHarness {
  testing::LocalRegistry metrics;  // first: every component below counts here
  SimEngine engine;
  TraceLog trace;
  Scheduler scheduler;
  GridServer server{engine, scheduler, trace, 1,
                    [](const Blob& b) { return !b.empty(); }};

  struct RecordingBackend : AssimilatorBackend {
    SimEngine& engine;
    std::vector<ResultEnvelope> seen;
    explicit RecordingBackend(SimEngine& e) : engine(e) {}
    void assimilate(ResultEnvelope env, std::size_t,
                    std::function<void()> on_done) override {
      seen.push_back(std::move(env));
      engine.schedule(1.0, [cb = std::move(on_done)] { cb(); });
    }
  };
  RecordingBackend backend{engine};

  explicit ConsensusHarness(ConsensusBuffer::Config config) {
    server.set_backend(&backend);
    server.enable_consensus(config, float_decoder);
  }
};

TEST(ConsensusIntegration, MajorityPromotesAndOutvotedLosesIntegrity) {
  ConsensusHarness h({.quorum = 2, .tolerance = 0.0, .fallback_s = 500.0});
  for (ClientId c = 0; c < 3; ++c) h.scheduler.register_client(c);
  h.scheduler.add_unit(make_unit(1, 600.0, /*replication=*/3));
  Workunit wu;
  for (ClientId c = 0; c < 3; ++c) {
    const auto got = h.scheduler.request_work(c, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    wu = got[0];
  }
  EXPECT_TRUE(h.server.submit_result(0, wu, byte_payload(0xAA)));
  EXPECT_EQ(h.server.held_replicas(), 1u);
  const double liar_integrity = h.scheduler.integrity(1);
  EXPECT_TRUE(h.server.submit_result(1, wu, byte_payload(0xEE)));  // byzantine
  EXPECT_EQ(h.server.held_replicas(), 2u);
  EXPECT_TRUE(h.server.submit_result(2, wu, byte_payload(0xAA)));  // quorum
  EXPECT_EQ(h.server.held_replicas(), 0u);

  h.engine.run();
  ASSERT_EQ(h.backend.seen.size(), 1u);
  EXPECT_EQ(h.backend.seen[0].client, 0u);  // earliest of the winning class
  EXPECT_TRUE(h.scheduler.all_done());
  EXPECT_EQ(h.metrics.count("consensus.quorum_promoted"), 1u);
  EXPECT_EQ(h.metrics.count("consensus.results_outvoted"), 1u);
  // The outvoted client's integrity took the consensus verdict.
  EXPECT_LT(h.scheduler.integrity(1), liar_integrity);
  EXPECT_EQ(h.metrics.count("scheduler.failure.invalid_result"), 1u);
  EXPECT_GT(h.trace.count(TraceKind::consensus_held), 0u);
  EXPECT_EQ(h.trace.count(TraceKind::consensus_quorum), 1u);
  EXPECT_EQ(h.trace.count(TraceKind::consensus_outvoted), 1u);
}

TEST(ConsensusIntegration, RetiredUnitEarlyOutSkipsValidator) {
  ConsensusHarness h({.quorum = 2, .tolerance = 0.0, .fallback_s = 500.0});
  for (ClientId c = 0; c < 3; ++c) h.scheduler.register_client(c);
  h.scheduler.add_unit(make_unit(1, 600.0, /*replication=*/3));
  Workunit wu;
  for (ClientId c = 0; c < 3; ++c) {
    const auto got = h.scheduler.request_work(c, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    wu = got[0];
  }
  EXPECT_TRUE(h.server.submit_result(0, wu, byte_payload(0xAA)));
  EXPECT_TRUE(h.server.submit_result(1, wu, byte_payload(0xAA)));
  ASSERT_TRUE(h.scheduler.is_retired(1));
  // The straggler's payload is *empty* — the validator would reject it — but
  // a retired unit early-outs before validation: duplicate, not invalid.
  const auto invalid_before = h.metrics.count("server.results_invalid");
  const double avail_before = h.scheduler.availability(2);
  EXPECT_TRUE(h.server.submit_result(2, wu, Blob()));
  EXPECT_EQ(h.server.stats().retired_skips, 1u);
  EXPECT_EQ(h.metrics.count("server.results_invalid"), invalid_before);
  EXPECT_EQ(h.metrics.count("server.results_duplicate"), 1u);
  // The late delivery still earns availability credit.
  EXPECT_GT(h.scheduler.availability(2), avail_before);
}

TEST(ConsensusIntegration, CrashReissuesHeldReplicasNothingLeaks) {
  ConsensusHarness h({.quorum = 2, .tolerance = 0.0, .fallback_s = 500.0});
  for (ClientId c = 0; c < 3; ++c) h.scheduler.register_client(c);
  h.scheduler.add_unit(make_unit(1, 600.0, /*replication=*/3));
  Workunit wu;
  for (ClientId c = 0; c < 3; ++c) {
    const auto got = h.scheduler.request_work(c, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    wu = got[0];
  }
  EXPECT_TRUE(h.server.submit_result(0, wu, byte_payload(0xAA)));
  EXPECT_TRUE(h.server.submit_result(1, wu, byte_payload(0xEE)));
  EXPECT_EQ(h.server.held_replicas(), 2u);

  h.server.crash();
  EXPECT_EQ(h.server.held_replicas(), 0u);
  EXPECT_EQ(h.metrics.count("scheduler.failure.replica_lost"), 2u);
  EXPECT_FALSE(h.scheduler.is_retired(1));
  h.engine.run();  // the orphaned fallback timer must no-op (generation guard)
  EXPECT_EQ(h.backend.seen.size(), 0u);

  h.server.restore();
  // Both former holders can re-run the unit; client 2 still has its original
  // assignment in flight.
  ASSERT_EQ(h.scheduler.request_work(0, 1, 100.0).size(), 1u);
  ASSERT_EQ(h.scheduler.request_work(1, 1, 100.0).size(), 1u);
  EXPECT_TRUE(h.server.submit_result(0, wu, byte_payload(0xAA)));
  EXPECT_TRUE(h.server.submit_result(2, wu, byte_payload(0xAA)));
  h.engine.run();
  EXPECT_TRUE(h.scheduler.all_done());
  ASSERT_EQ(h.backend.seen.size(), 1u);
  EXPECT_EQ(h.metrics.count("consensus.quorum_promoted"), 1u);
}

TEST(ConsensusIntegration, FallbackDeadlinePromotesPluralityOfArrivals) {
  // The third replica holder is gone (crashed / gated / endlessly retrying):
  // quorum never forms, the fallback timer promotes what arrived.
  ConsensusHarness h({.quorum = 2, .tolerance = 0.0, .fallback_s = 50.0});
  for (ClientId c = 0; c < 3; ++c) h.scheduler.register_client(c);
  h.scheduler.add_unit(make_unit(1, 600.0, /*replication=*/3));
  Workunit wu;
  for (ClientId c = 0; c < 3; ++c) {
    const auto got = h.scheduler.request_work(c, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    wu = got[0];
  }
  EXPECT_TRUE(h.server.submit_result(0, wu, byte_payload(0xAA)));
  EXPECT_TRUE(h.server.submit_result(1, wu, byte_payload(0xEE)));
  h.engine.run();  // fallback fires at t = 50
  ASSERT_EQ(h.backend.seen.size(), 1u);
  EXPECT_EQ(h.backend.seen[0].client, 0u);  // 1-vs-1 tie → earliest arrival
  EXPECT_EQ(h.metrics.count("consensus.fallback_promoted"), 1u);
  EXPECT_EQ(h.metrics.count("consensus.quorum_promoted"), 0u);
  EXPECT_EQ(h.trace.count(TraceKind::consensus_fallback), 1u);
  EXPECT_TRUE(h.scheduler.is_retired(1));
}

TEST(ConsensusIntegration, DeadlineReassignRacesQuorumSafely) {
  // Replica 2's holder misses its deadline while replica 1 sits in the
  // buffer; the reissued replica completes the quorum.
  ConsensusHarness h({.quorum = 2, .tolerance = 0.0, .fallback_s = 500.0});
  for (ClientId c = 0; c < 3; ++c) h.scheduler.register_client(c);
  h.scheduler.add_unit(make_unit(1, /*deadline=*/50.0, /*replication=*/2));
  Workunit wu;
  for (ClientId c = 0; c < 2; ++c) {
    const auto got = h.scheduler.request_work(c, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    wu = got[0];
  }
  EXPECT_TRUE(h.server.submit_result(0, wu, byte_payload(0xAA)));
  EXPECT_EQ(h.server.held_replicas(), 1u);
  // Client 1 times out; its replica is requeued and lands on client 2. The
  // held replica's own deadline must NOT fire (report_replica dropped it).
  const auto expired = h.scheduler.expire_deadlines(60.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(h.metrics.count("scheduler.failure.timeout"), 1u);
  ASSERT_EQ(h.scheduler.request_work(2, 1, 61.0).size(), 1u);
  EXPECT_TRUE(h.server.submit_result(2, wu, byte_payload(0xAA)));
  h.engine.run();
  ASSERT_EQ(h.backend.seen.size(), 1u);
  EXPECT_EQ(h.metrics.count("consensus.quorum_promoted"), 1u);
  EXPECT_TRUE(h.scheduler.all_done());
}

// --- consensus.* instrumentation coverage ------------------------------------

// Every name in consensus_metric_names() has a registered counter that its
// emission site actually increments, and no undeclared consensus.* counter
// exists — the same set-equality contract the scheduler/fault taxonomies
// carry in test_obs.cpp.
TEST(ConsensusCoverage, MetricNamesMatchRegisteredCounters) {
  testing::LocalRegistry reg;

  // Buffer counters: held, quorum_promoted, outvoted (promotion), then
  // fallback_promoted (flush) and replicas_flushed (drain).
  {
    ConsensusBuffer buf({.quorum = 2, .tolerance = 0.0}, nullptr);
    const Workunit wu = make_unit(1);
    (void)buf.submit(wu, 0, byte_payload(0xAA), 1.0, 3);
    (void)buf.submit(wu, 1, byte_payload(0xEE), 2.0, 3);
    (void)buf.submit(wu, 2, byte_payload(0xAA), 3.0, 3);
    (void)buf.submit(make_unit(2), 0, byte_payload(0xAA), 4.0, 3);
    (void)buf.flush(2);
    (void)buf.submit(make_unit(3), 0, byte_payload(0xAA), 5.0, 3);
    (void)buf.drain();
  }
  // Adaptive-replication counters: a solo grant and a spot check.
  {
    Scheduler s;
    s.enable_adaptive_replication({.trust_threshold = 0.7,
                                   .untrusted_replication = 3,
                                   .spot_check_prob = 0.0},
                                  Rng(1));
    s.register_client(0);
    build_trust(s, 0, 1);
    s.add_unit(make_unit(100));
    ASSERT_EQ(s.request_work(0, 1, 10.0).size(), 1u);  // solo grant
  }
  {
    Scheduler s;
    s.enable_adaptive_replication({.trust_threshold = 0.7,
                                   .untrusted_replication = 3,
                                   .spot_check_prob = 1.0},
                                  Rng(1));
    s.register_client(0);
    build_trust(s, 0, 1);
    s.add_unit(make_unit(100));
    ASSERT_EQ(s.request_work(0, 1, 10.0).size(), 1u);  // spot check
  }
  // Blend guard.
  EXPECT_TRUE(blend_outlier({1.0f, 1.0f}, {-9.0f, 9.0f}, 0.5));

  std::set<std::string> expected;
  for (const auto& name : consensus_metric_names()) {
    expected.insert("consensus." + name);
    EXPECT_GT(reg.count("consensus." + name), 0u)
        << "consensus metric '" << name << "' never incremented its counter";
  }
  EXPECT_EQ(reg.counters_with_prefix("consensus."), expected);
}

// --- Quorum invariant property + mutation check -------------------------------
//
// The invariant: with consensus enabled, the promoted result always belongs
// to a largest equivalence class — a strict minority is never assimilated,
// whatever the arrival order. The mutation check flips the test-only
// first-result-wins hook (grid/test_hooks.hpp) and the same checker MUST
// catch a seeded minority-first arrival, proving the property has teeth.

struct QuorumCase {
  std::vector<std::uint8_t> replica_fill;  // payload byte per replica, in
                                           // arrival order
};

// Runs the case through a buffer and returns true iff the promotion was
// legitimate: the winner's equivalence class is (tied-)largest among the
// replicas submitted up to the decision point, and a quorum promotion really
// had m = min(quorum, k) agreeing members. (Class sizes are counted over the
// submitted *prefix* — once a class reaches m the unit retires and the
// remaining replicas are never uploaded, so judging the winner against
// replicas it never saw would be unsound.)
bool winner_is_from_largest_class(const QuorumCase& qc, std::size_t quorum) {
  ConsensusBuffer buf({.quorum = quorum, .tolerance = 0.0}, nullptr);
  const Workunit wu = make_unit(1);
  const std::size_t k = qc.replica_fill.size();
  std::map<std::uint8_t, std::size_t> seen;  // class sizes, submitted prefix
  const auto verdict = [&](const ConsensusBuffer::Submission& sub) {
    if (sub.outcome == ConsensusBuffer::Outcome::promoted &&
        sub.agreeing < std::min(quorum, k)) {
      return false;  // "quorum" without m agreeing replicas
    }
    const std::uint8_t winner_fill =
        qc.replica_fill[static_cast<std::size_t>(sub.winner->client)];
    std::size_t largest = 0;
    for (const auto& [fill, size] : seen) largest = std::max(largest, size);
    return seen.at(winner_fill) == largest;
  };
  for (std::size_t i = 0; i < k; ++i) {
    ++seen[qc.replica_fill[i]];
    const auto sub = buf.submit(wu, i, byte_payload(qc.replica_fill[i]),
                                static_cast<SimTime>(i), k);
    if (sub.outcome == ConsensusBuffer::Outcome::held) continue;
    return verdict(sub);
  }
  // Unreachable with distinct clients (the k-th submit always resolves), but
  // keep the deadline path honest if that ever changes.
  const auto sub = buf.flush(1);
  return !sub.has_value() || verdict(*sub);
}

TEST(QuorumInvariant, MinorityReplicaIsNeverPromoted) {
  PropConfig cfg;
  cfg.name = "consensus.minority-never-promoted";
  cfg.suite = "test_consensus";
  cfg.trials = 64;
  cfg.max_size = 8;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    QuorumCase qc;
    const std::size_t k =
        2 + rng.uniform_index(static_cast<std::uint64_t>(size) + 2);
    const std::size_t classes = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < k; ++i) {
      qc.replica_fill.push_back(
          static_cast<std::uint8_t>(rng.uniform_index(classes)));
    }
    const std::size_t quorum = 2 + rng.uniform_index(2);
    prop_assert(winner_is_from_largest_class(qc, quorum),
                "a minority replica was promoted (k=" + std::to_string(k) +
                    ")");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

struct ConsensusHookGuard {
  ConsensusHookGuard() { grid_hooks::consensus_first_result_wins = true; }
  ~ConsensusHookGuard() { grid_hooks::consensus_first_result_wins = false; }
};

TEST(QuorumInvariantMutation, FirstResultWinsSabotageIsCaught) {
  // Minority payload arrives first. With the sabotage hook on (pre-consensus
  // acceptance), the checker must flag the violation.
  const QuorumCase minority_first{{0xEE, 0xAA, 0xAA}};
  ASSERT_TRUE(winner_is_from_largest_class(minority_first, 2));
  const ConsensusHookGuard guard;
  EXPECT_FALSE(winner_is_from_largest_class(minority_first, 2))
      << "sabotaged first-result-wins consensus slipped past the invariant";
}

TEST(QuorumInvariantMutation, HookOffPassesAgain) {
  ASSERT_FALSE(grid_hooks::consensus_first_result_wins);
  EXPECT_TRUE(winner_is_from_largest_class({{0xEE, 0xAA, 0xAA}}, 2));
}

// --- End-to-end: byzantine fleet through the trainer --------------------------

ExperimentSpec byzantine_fleet_spec() {
  ExperimentSpec spec = tiny_image_spec(/*trace=*/true);
  spec.clients = 3;
  spec.replication = 3;
  spec.adversary.fraction = 1.0 / 3.0;
  spec.adversary.mode = AttackMode::sign_flip;
  spec.consensus.enabled = true;
  spec.consensus.quorum = 2;
  spec.consensus.tolerance = 0.1;
  spec.blend_outlier_threshold = 4.0;
  return spec;
}

TEST(ByzantineEndToEnd, SameSeedRunsAreDigestAndMetricsIdentical) {
  const ExperimentSpec spec = byzantine_fleet_spec();
  VcTrainer a(spec);
  const TrainResult ra = a.run();
  VcTrainer b(spec);
  const TrainResult rb = b.run();
  EXPECT_EQ(a.trace().digest(), b.trace().digest())
      << a.trace().digest().to_string() << " vs "
      << b.trace().digest().to_string();
  EXPECT_EQ(ra.metrics.to_json(), rb.metrics.to_json());
  // The attack actually fired and consensus actually voted.
  EXPECT_GT(ra.totals.byzantine_attacks, 0u);
  EXPECT_GT(ra.totals.consensus_quorums, 0u);
  EXPECT_GT(ra.totals.results_outvoted, 0u);
  EXPECT_EQ(ra.totals.byzantine_attacks,
            ra.metrics.counters.at("faults.byzantine_result"));
}

TEST(ByzantineEndToEnd, QuorumKeepsSignFlipperOutOfTheBlend) {
  // With a 1/3 sign-flipping minority and m=2-of-3 consensus, every quorum
  // promotion comes from the honest 2/3 — the liar's replicas are outvoted,
  // and run accuracy survives (the bench sweeps this across fractions).
  ExperimentSpec spec = byzantine_fleet_spec();
  const TrainResult r = VcTrainer(spec).run();
  EXPECT_GT(r.totals.results_outvoted, 0u);
  // The epoch accuracies stayed finite and the job converged to completion.
  ASSERT_FALSE(r.epochs.empty());
  for (const auto& e : r.epochs) {
    EXPECT_TRUE(std::isfinite(e.mean_subtask_acc));
    EXPECT_GE(e.mean_subtask_acc, 0.0);
  }
}

TEST(ByzantineEndToEnd, AdaptiveReplicationSpotChecksAndSoloGrants) {
  ExperimentSpec spec = byzantine_fleet_spec();
  spec.adversary.fraction = 0.0;  // honest fleet: trust builds quickly
  spec.replication = 1;
  spec.adaptive_replication = true;
  spec.adaptive_trust_threshold = 0.7;
  spec.adaptive_untrusted_replication = 3;
  spec.adaptive_spot_check_prob = 0.25;
  spec.max_epochs = 3;
  const TrainResult r = VcTrainer(spec).run();
  // Early units replicate (new clients), later ones go solo; some audits.
  EXPECT_GT(r.metrics.counters.at("consensus.solo_grants"), 0u);
  EXPECT_GT(r.totals.spot_checks, 0u);
}

}  // namespace
}  // namespace vcdl
