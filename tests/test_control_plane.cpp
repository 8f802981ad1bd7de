// Asynchronous control-plane detector layer: feature pipeline units,
// multi-victim coordinator actuation (engage / disengage / retarget),
// ControlPlane end-to-end sequences against fake actuators, pooled-vs-
// inline bit-identity, and the multi-victim experiment regression
// (every protected destination must trigger detector-mode defense).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/shard_worker_pool.hpp"
#include "pushback/control_plane.hpp"
#include "pushback/coordinator.hpp"
#include "pushback/detector_features.hpp"
#include "scenario/experiment.hpp"
#include "sim/simulator.hpp"

namespace mafic::pushback {
namespace {

struct FlowSpec {
  sim::NodeId src;
  sim::NodeId dst;
  std::uint64_t n;
};

/// Builds a snapshot from (src router, dst router, packet count) triples;
/// uid_base keeps packet populations distinct across epochs.
sketch::TrafficMatrixSnapshot make_snapshot(std::size_t routers,
                                            std::vector<FlowSpec> flows,
                                            std::uint64_t uid_base,
                                            double epoch_end = 0.1) {
  sketch::RouterSketchBank bank(routers, 12, 77);
  std::uint64_t uid = uid_base;
  for (const FlowSpec& f : flows) {
    for (std::uint64_t i = 0; i < f.n; ++i, ++uid) {
      bank.record_ingress(f.src, uid);
      bank.record_egress(f.dst, uid);
    }
  }
  sketch::TrafficMatrixSnapshot snap;
  snap.epoch_start = epoch_end - 0.1;
  snap.epoch_end = epoch_end;
  for (std::size_t i = 0; i < routers; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  return snap;
}

sketch::ControlSnapshot control_snap(sketch::TrafficMatrixSnapshot matrix,
                                     std::vector<sketch::VictimCounterSample>
                                         victims) {
  sketch::ControlSnapshot cs;
  cs.matrix = std::move(matrix);
  cs.victims = std::move(victims);
  return cs;
}

// --------------------------------------------------------------- pipeline ---

TEST(DetectorFeaturePipeline, DefaultDecisionMatchesPlainDetector) {
  VictimDetector::Config dcfg;
  dcfg.warmup_epochs = 2;
  dcfg.trigger_factor = 2.0;
  dcfg.clear_factor = 1.5;
  dcfg.min_packets_per_epoch = 50;

  FeatureConfig fcfg;
  fcfg.ewma = dcfg;
  DetectorFeaturePipeline pipe(fcfg);
  VictimDetector plain(dcfg);

  const sketch::VictimCounterSample v{/*victim=*/42, /*router=*/1, 0, 0, 0,
                                      0};
  // Baseline, surge, persist, subside — the combined decision must track
  // the plain detector exactly when the extra gates are off.
  const std::uint64_t loads[] = {200, 200, 200, 200, 3000, 3000, 210, 200};
  std::uint64_t uid = 0;
  for (const std::uint64_t n : loads) {
    auto matrix = make_snapshot(3, {{0, 1, n}}, uid);
    uid += 1000000;
    plain.on_epoch(matrix);
    const auto decisions = pipe.step(control_snap(std::move(matrix), {v}));
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].alarming, plain.alarming(1)) << "load " << n;
  }
}

TEST(DetectorFeaturePipeline, ComputesVelocityFanInAndPopulationShift) {
  FeatureConfig fcfg;
  fcfg.ewma.warmup_epochs = 100;  // keep the EWMA rule quiet
  fcfg.fan_in_floor = 50.0;
  DetectorFeaturePipeline pipe(fcfg);

  sketch::VictimCounterSample v;
  v.victim = 42;
  v.last_hop_router = 2;

  // Epoch 1: routers 0 and 1 both feed victim router 2; router 0 also
  // sends unrelated traffic to router 3 (not in the column).
  auto d1 = pipe.step(control_snap(
      make_snapshot(4, {{0, 2, 400}, {1, 2, 300}, {0, 3, 500}}, 0), {v}));
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_NEAR(d1[0].features.d, 700.0, 70.0);
  EXPECT_EQ(d1[0].features.fan_in, 2.0);
  EXPECT_EQ(d1[0].features.velocity, 0.0);  // no previous epoch
  EXPECT_EQ(d1[0].features.malicious_share, 0.0);

  // Epoch 2: volume doubles, fan-in collapses to one source, and the
  // filters have decided 30 nice / 90 malicious flows.
  v.decided_nice = 30;
  v.decided_malicious = 90;
  auto d2 = pipe.step(
      control_snap(make_snapshot(4, {{0, 2, 1400}}, 10000000), {v}));
  EXPECT_NEAR(d2[0].features.velocity,
              d2[0].features.d - d1[0].features.d, 1e-9);
  EXPECT_GT(d2[0].features.velocity, 400.0);
  EXPECT_EQ(d2[0].features.fan_in, 1.0);
  EXPECT_DOUBLE_EQ(d2[0].features.malicious_share, 0.75);
  EXPECT_DOUBLE_EQ(d2[0].features.population_shift, 0.75);

  // Epoch 3: share stays put, so the shift goes to zero.
  auto d3 = pipe.step(
      control_snap(make_snapshot(4, {{0, 2, 1400}}, 20000000), {v}));
  EXPECT_DOUBLE_EQ(d3[0].features.population_shift, 0.0);
}

TEST(DetectorFeaturePipeline, VelocityGateRaisesAndClearsWithoutEwma) {
  FeatureConfig fcfg;
  fcfg.ewma.warmup_epochs = 100;  // EWMA rule can never fire
  fcfg.velocity_trigger = 500.0;
  DetectorFeaturePipeline pipe(fcfg);

  const sketch::VictimCounterSample v{42, 1, 0, 0, 0, 0};
  auto d1 =
      pipe.step(control_snap(make_snapshot(2, {{0, 1, 200}}, 0), {v}));
  EXPECT_FALSE(d1[0].alarming);
  auto d2 = pipe.step(
      control_snap(make_snapshot(2, {{0, 1, 2000}}, 10000000), {v}));
  EXPECT_TRUE(d2[0].raised);
  EXPECT_TRUE(d2[0].alarming);
  // Level-triggered: steady volume means zero velocity, so it clears.
  auto d3 = pipe.step(
      control_snap(make_snapshot(2, {{0, 1, 2000}}, 20000000), {v}));
  EXPECT_TRUE(d3[0].cleared);
  EXPECT_FALSE(d3[0].alarming);
}

// ------------------------------------------------- coordinator actuation ---

class FakeActuator final : public core::DefenseActuator {
 public:
  void activate(const core::VictimSet& v) override {
    active_ = true;
    for (const util::Addr a : v) victims.insert(a);
    ++activations;
  }
  void refresh() override { ++refreshes; }
  void deactivate() override {
    active_ = false;
    victims.clear();  // a real engine flushes all tables
    ++deactivations;
  }
  bool active() const noexcept override { return active_; }

  bool active_ = false;
  int activations = 0;
  int refreshes = 0;
  int deactivations = 0;
  core::VictimSet victims;
};

std::vector<AtrScore> scores_for(std::vector<sim::NodeId> routers) {
  std::vector<AtrScore> out;
  for (const sim::NodeId r : routers) {
    out.push_back(AtrScore{r, 1000.0, 0.5});
  }
  return out;
}

PushbackCoordinator::Config coord_cfg() {
  PushbackCoordinator::Config cfg;
  cfg.refresh_interval = 0.1;
  return cfg;
}

TEST(CoordinatorMultiVictim, EngageActivatesPerRouterUnion) {
  sim::Simulator sim;
  PushbackCoordinator coord(&sim, coord_cfg());
  FakeActuator a0, a1;
  coord.register_actuator(0, &a0);
  coord.register_actuator(1, &a1);

  coord.engage_victim(/*victim=*/100, scores_for({0, 1}));
  EXPECT_TRUE(a0.active() && a1.active());
  EXPECT_TRUE(a0.victims.contains(100) && a1.victims.contains(100));
  EXPECT_TRUE(coord.triggered());

  // Second victim shares router 1 only: a1 gains victim 101, a0 is
  // untouched, and the ATR union covers both routers.
  coord.engage_victim(/*victim=*/101, scores_for({1}));
  EXPECT_FALSE(a0.victims.contains(101));
  EXPECT_TRUE(a1.victims.contains(100) && a1.victims.contains(101));
  EXPECT_EQ(coord.engaged_atrs(), (std::vector<sim::NodeId>{0, 1}));
  EXPECT_EQ(a0.activations, 1);

  // Re-engaging with an already-known ATR is a no-op for the actuator.
  const int before = a0.activations;
  coord.engage_victim(100, scores_for({0}));
  EXPECT_EQ(a0.activations, before);
}

TEST(CoordinatorMultiVictim, DisengageRetargetsSharedRoutersOnly) {
  sim::Simulator sim;
  PushbackCoordinator coord(&sim, coord_cfg());
  FakeActuator a0, a1;
  coord.register_actuator(0, &a0);
  coord.register_actuator(1, &a1);

  coord.engage_victim(100, scores_for({0, 1}));
  coord.engage_victim(101, scores_for({1}));

  coord.disengage_victim(100);
  // Router 0 was exclusive to victim 100: plain deactivation.
  EXPECT_FALSE(a0.active());
  // Router 1 is shared: flush + re-activate with the remaining victim.
  EXPECT_TRUE(a1.active());
  EXPECT_TRUE(a1.victims.contains(101));
  EXPECT_FALSE(a1.victims.contains(100));
  EXPECT_EQ(coord.retargets(), 1u);
  EXPECT_EQ(coord.engaged_atrs(), (std::vector<sim::NodeId>{1}));
  EXPECT_EQ(a0.deactivations, 1);

  // Re-engagement re-activates the exclusive router.
  coord.engage_victim(100, scores_for({0}));
  EXPECT_TRUE(a0.active());
  EXPECT_TRUE(a0.victims.contains(100));
  EXPECT_EQ(a0.activations, 2);
  EXPECT_EQ(coord.engaged_atrs(), (std::vector<sim::NodeId>{0, 1}));
}

TEST(CoordinatorMultiVictim, TriggerCallbackFiresOnceAcrossVictims) {
  sim::Simulator sim;
  PushbackCoordinator coord(&sim, coord_cfg());
  FakeActuator a0, a1;
  coord.register_actuator(0, &a0);
  coord.register_actuator(1, &a1);
  std::vector<double> triggers;
  coord.set_trigger_callback(
      [&](double t, const std::vector<AtrScore>&) { triggers.push_back(t); });

  EXPECT_FALSE(coord.triggered());
  coord.engage_victim(100, {});  // nothing identified: not a trigger
  EXPECT_FALSE(coord.triggered());
  sim.schedule_at(0.2, [&] { coord.engage_victim(100, scores_for({0})); });
  sim.schedule_at(0.3, [&] { coord.engage_victim(101, scores_for({1})); });
  sim.schedule_at(0.4, [&] { coord.disengage_victim(100); });
  sim.schedule_at(0.5, [&] { coord.engage_victim(100, scores_for({0})); });
  sim.run_until(0.6);
  EXPECT_TRUE(coord.triggered());
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_DOUBLE_EQ(triggers[0], 0.2);
  EXPECT_EQ(a0.activations, 2);
}

TEST(CoordinatorMultiVictim, RefreshCoversEveryEngagedResponse) {
  sim::Simulator sim;
  PushbackCoordinator coord(&sim, coord_cfg());
  FakeActuator a0, a1;
  coord.register_actuator(0, &a0);
  coord.register_actuator(1, &a1);

  coord.engage_victim(100, scores_for({0}));
  coord.engage_victim(101, scores_for({1}));
  sim.run_until(0.35);  // three refresh ticks
  EXPECT_GE(a0.refreshes, 3);
  EXPECT_GE(a1.refreshes, 3);
  // A shared router is refreshed once per tick, not once per victim.
  coord.engage_victim(101, scores_for({0}));
  const int base = a0.refreshes;
  sim.run_until(0.45);
  EXPECT_LE(a0.refreshes - base, 1);

  coord.cancel();
  EXPECT_FALSE(a0.active());
  EXPECT_FALSE(a1.active());
  EXPECT_TRUE(coord.engaged_atrs().empty());
}

// ----------------------------------------------------- control plane e2e ---

struct PlaneHarness {
  explicit PlaneHarness(core::ShardWorkerPool* pool = nullptr,
                        bool latch = false) {
    ControlPlane::Config cfg;
    cfg.control_delay = 0.01;
    cfg.latch = latch;
    cfg.atr.share_threshold = 0.2;
    cfg.atr.min_intersection = 100;
    cfg.features.ewma.warmup_epochs = 1;
    cfg.features.ewma.trigger_factor = 2.0;
    cfg.features.ewma.clear_factor = 1.5;
    cfg.features.ewma.min_packets_per_epoch = 50;
    coord = std::make_unique<PushbackCoordinator>(&sim, coord_cfg());
    plane = std::make_unique<ControlPlane>(&sim, coord.get(), cfg);
    coord->register_actuator(0, &a0);
    coord->register_actuator(1, &a1);
    // Victim A (addr 100) behind router 2, victim B (addr 101) behind 3.
    plane->protect(2, 100);
    plane->protect(3, 101);
    if (pool != nullptr) plane->set_pool(pool);
  }

  /// Schedules one epoch snapshot: router 0 -> victim A's router 2 with
  /// `to_a` packets, router 1 -> victim B's router 3 with `to_b`.
  void epoch_at(double t, std::uint64_t to_a, std::uint64_t to_b) {
    auto snap = make_snapshot(
        4, {{0, 2, to_a}, {1, 3, to_b}},
        static_cast<std::uint64_t>(t * 1e9), t);
    sim.schedule_at(t, [this, s = std::move(snap)] { plane->ingest(s); });
  }

  sim::Simulator sim;
  std::unique_ptr<PushbackCoordinator> coord;
  std::unique_ptr<ControlPlane> plane;
  FakeActuator a0, a1;
};

TEST(ControlPlane, EngagesEachVictimIndependently) {
  PlaneHarness h;
  // Baselines for both victims, then victim A is flooded; two epochs
  // later victim B too.
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 200, 200);
  h.epoch_at(0.3, 2000, 200);  // A floods
  h.epoch_at(0.4, 2000, 200);
  h.epoch_at(0.5, 2000, 2000);  // B floods

  h.sim.run_until(0.45);
  const auto& st = h.plane->statuses();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_TRUE(st[0].alarming);
  EXPECT_TRUE(st[0].engaged);
  EXPECT_DOUBLE_EQ(st[0].trigger_time, 0.31);  // epoch + control delay
  EXPECT_EQ(st[0].atrs, (std::vector<sim::NodeId>{0}));
  EXPECT_TRUE(h.a0.active());
  EXPECT_TRUE(h.a0.victims.contains(100));
  // Victim B is still quiet: no alarm, no actuation at its ATR.
  EXPECT_FALSE(st[1].alarming);
  EXPECT_FALSE(st[1].engaged);
  EXPECT_FALSE(h.a1.active());

  h.sim.run_until(0.55);
  EXPECT_TRUE(h.plane->statuses()[1].engaged);
  EXPECT_DOUBLE_EQ(h.plane->statuses()[1].trigger_time, 0.51);
  EXPECT_TRUE(h.a1.active());
  EXPECT_TRUE(h.a1.victims.contains(101));
  EXPECT_EQ(h.plane->active_atrs(), (std::vector<sim::NodeId>{0, 1}));
}

TEST(ControlPlane, UnlatchedClearDisengagesAndReengages) {
  PlaneHarness h(nullptr, /*latch=*/false);
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 2000, 200);  // A floods -> engage
  h.epoch_at(0.3, 210, 200);   // subsides -> clear -> disengage
  h.epoch_at(0.4, 2000, 200);  // floods again -> re-engage

  h.sim.run_until(0.35);
  const auto& st = h.plane->statuses();
  EXPECT_FALSE(st[0].alarming);
  EXPECT_FALSE(st[0].engaged);
  EXPECT_DOUBLE_EQ(st[0].clear_time, 0.31);
  EXPECT_FALSE(h.a0.active());
  EXPECT_EQ(st[0].alarms, 1u);

  h.sim.run_until(0.45);
  EXPECT_TRUE(h.plane->statuses()[0].engaged);
  EXPECT_EQ(h.plane->statuses()[0].alarms, 2u);
  EXPECT_TRUE(h.a0.active());
  // The first trigger time is preserved across re-engagements.
  EXPECT_DOUBLE_EQ(h.plane->statuses()[0].trigger_time, 0.21);
  EXPECT_EQ(h.a0.activations, 2);
  EXPECT_EQ(h.a0.deactivations, 1);
}

TEST(ControlPlane, SurgeTowardUnprotectedRouterEngagesNothing) {
  // Only victim A (router 2) is protected; the flood goes to router 3.
  sim::Simulator sim;
  PushbackCoordinator coord(&sim, coord_cfg());
  ControlPlane::Config cfg;
  cfg.atr.share_threshold = 0.2;
  cfg.atr.min_intersection = 100;
  cfg.features.ewma.warmup_epochs = 1;
  cfg.features.ewma.trigger_factor = 2.0;
  cfg.features.ewma.min_packets_per_epoch = 50;
  ControlPlane plane(&sim, &coord, cfg);
  FakeActuator a0;
  coord.register_actuator(0, &a0);
  plane.protect(2, 100);
  bool triggered = false;
  coord.set_trigger_callback(
      [&](double, const std::vector<AtrScore>&) { triggered = true; });

  for (int e = 0; e < 4; ++e) {
    const double t = 0.1 * (e + 1);
    const std::uint64_t to_unprotected = e < 2 ? 200 : 5000;
    auto snap = make_snapshot(4, {{0, 2, 200}, {0, 3, to_unprotected}},
                              static_cast<std::uint64_t>(e) * 1000000, t);
    sim.schedule_at(t, [&plane, s = std::move(snap)] { plane.ingest(s); });
  }
  sim.run_until(0.5);
  EXPECT_EQ(plane.epochs_observed(), 4u);
  EXPECT_FALSE(plane.statuses()[0].alarming);
  EXPECT_EQ(plane.statuses()[0].alarms, 0u);
  EXPECT_EQ(plane.apply_events(), 0u);
  EXPECT_FALSE(a0.active());
  EXPECT_EQ(a0.activations, 0);
  EXPECT_FALSE(triggered);
  EXPECT_TRUE(coord.engaged_atrs().empty());
}

TEST(ControlPlane, LatchedResponseSurvivesClear) {
  PlaneHarness h(nullptr, /*latch=*/true);
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 2000, 200);
  h.epoch_at(0.3, 210, 200);  // alarm clears, response must not

  h.sim.run_until(0.35);
  const auto& st = h.plane->statuses();
  EXPECT_FALSE(st[0].alarming);
  EXPECT_TRUE(st[0].engaged);
  EXPECT_LT(st[0].clear_time, 0.0);
  EXPECT_TRUE(h.a0.active());
}

TEST(ControlPlane, PooledDetectionIsBitIdenticalToInline) {
  core::ShardWorkerPool pool(2);
  PlaneHarness inline_h(nullptr, /*latch=*/false);
  PlaneHarness pooled_h(&pool, /*latch=*/false);
  for (PlaneHarness* h : {&inline_h, &pooled_h}) {
    h->epoch_at(0.1, 200, 200);
    h->epoch_at(0.2, 2000, 200);
    h->epoch_at(0.3, 2000, 2000);
    h->epoch_at(0.4, 210, 210);
    h->epoch_at(0.5, 2000, 200);
    h->sim.run_until(0.6);
  }
  EXPECT_EQ(pooled_h.plane->detection_steps_pooled(), 5u);
  EXPECT_EQ(inline_h.plane->detection_steps_pooled(), 0u);

  const auto& a = inline_h.plane->statuses();
  const auto& b = pooled_h.plane->statuses();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].alarming, b[i].alarming);
    EXPECT_EQ(a[i].engaged, b[i].engaged);
    EXPECT_EQ(a[i].alarms, b[i].alarms);
    EXPECT_DOUBLE_EQ(a[i].trigger_time, b[i].trigger_time);
    EXPECT_DOUBLE_EQ(a[i].clear_time, b[i].clear_time);
    EXPECT_EQ(a[i].atrs, b[i].atrs);
    EXPECT_DOUBLE_EQ(a[i].features.d, b[i].features.d);
    EXPECT_DOUBLE_EQ(a[i].features.velocity, b[i].features.velocity);
    EXPECT_DOUBLE_EQ(a[i].features.fan_in, b[i].features.fan_in);
  }
  EXPECT_EQ(inline_h.a0.activations, pooled_h.a0.activations);
  EXPECT_EQ(inline_h.a1.activations, pooled_h.a1.activations);
}

}  // namespace
}  // namespace mafic::pushback

// -------------------------------------------- experiment-level regression ---

namespace mafic::scenario {
namespace {

TEST(ControlPlaneExperiment, ControlDelayMustBeShorterThanAnEpoch) {
  // The plane records an engagement as applied when it schedules it. With
  // a delay of an epoch or more, the next epoch's clear can run before
  // the engage lands, and an unlatched response then stays engaged for
  // good. setup() rejects the configuration instead.
  ExperimentConfig cfg;
  cfg.total_flows = 20;
  cfg.router_count = 12;
  cfg.trigger = TriggerMode::kDetector;
  cfg.pushback.latch = false;
  cfg.epoch_seconds = 0.1;
  for (const double delay : {0.1, 0.15}) {
    cfg.pushback.control_delay = delay;
    Experiment exp(cfg);
    EXPECT_THROW(exp.setup(), std::invalid_argument) << delay;
    EXPECT_FALSE(exp.is_setup());
  }
  // A delay inside the epoch is fine, and scripted runs have no apply
  // events to order.
  cfg.pushback.control_delay = 0.09;
  EXPECT_NO_THROW(Experiment(cfg).setup());
  cfg.pushback.control_delay = 0.15;
  cfg.trigger = TriggerMode::kScripted;
  EXPECT_NO_THROW(Experiment(cfg).setup());
}

TEST(ControlPlaneExperiment, DetectorModeProtectsEveryVictim) {
  // Regression for the single-victim build_defense() bug: with
  // extra_victims > 0 only the primary destination was ever protected
  // (and only its access link sketch-tapped), so secondary victims never
  // triggered detector-mode defense. Every victim must now alarm and
  // engage on its own schedule.
  ExperimentConfig cfg;
  cfg.total_flows = 24;  // 18 legit + 6 zombies, 2 per victim
  cfg.tcp_fraction = 0.75;
  cfg.router_count = 12;
  cfg.seed = 7;
  cfg.extra_victims = 2;
  cfg.trigger = TriggerMode::kDetector;
  cfg.attack_army_total_bps = 60e6;
  // A victim's last-hop |Dj| also carries colocated hosts' egress (TCP
  // ack streams), so the floor sits above that background noise.
  cfg.pushback.detector.min_packets_per_epoch = 120;
  cfg.end_time = 10.0;

  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  ASSERT_EQ(r.per_victim.size(), 3u);
  for (std::size_t v = 0; v < r.per_victim.size(); ++v) {
    SCOPED_TRACE("victim " + std::to_string(v));
    EXPECT_GE(r.per_victim[v].alarms, 1u);
    EXPECT_GT(r.per_victim[v].trigger_time, cfg.attack_start);
    EXPECT_LT(r.per_victim[v].trigger_time, cfg.attack_start + 1.5);
  }
  // The per-victim ATR union still finds every zombie router.
  EXPECT_GE(r.atr.recall, 0.99);

  ASSERT_NE(exp.control_plane(), nullptr);
  EXPECT_GT(exp.control_plane()->epochs_observed(), 0u);
  EXPECT_EQ(exp.control_plane()->detection_steps_pooled(), 0u);
}

TEST(ControlPlaneExperiment, ThreadedDatapathRunsDetectionAsPoolWork) {
  ExperimentConfig cfg;
  cfg.total_flows = 24;
  cfg.tcp_fraction = 0.75;
  cfg.router_count = 12;
  cfg.seed = 7;
  cfg.extra_victims = 2;
  cfg.trigger = TriggerMode::kDetector;
  cfg.attack_army_total_bps = 60e6;
  cfg.pushback.detector.min_packets_per_epoch = 120;
  cfg.num_shards = 4;
  cfg.shard_threads = 2;
  cfg.link_burst_size = 8;
  cfg.end_time = 10.0;

  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  ASSERT_NE(exp.control_plane(), nullptr);
  // Every observed epoch ran its detection step on the worker pool.
  EXPECT_GT(exp.control_plane()->epochs_observed(), 0u);
  EXPECT_EQ(exp.control_plane()->detection_steps_pooled(),
            exp.control_plane()->epochs_observed());
  for (const auto& pv : r.per_victim) {
    EXPECT_GT(pv.trigger_time, cfg.attack_start);
  }
}

}  // namespace
}  // namespace mafic::scenario
