#include <gtest/gtest.h>

#include "pushback/atr_identifier.hpp"
#include "pushback/victim_detector.hpp"
#include "sim/simulator.hpp"

namespace mafic::pushback {
namespace {

/// Builds a snapshot where router `src` injected `n` packets terminating at
/// router `dst` (optionally with extra unrelated traffic).
sketch::TrafficMatrixSnapshot make_snapshot(std::size_t routers,
                                            sim::NodeId src, sim::NodeId dst,
                                            std::uint64_t n,
                                            std::uint64_t uid_base = 0) {
  sketch::RouterSketchBank bank(routers, 12, 77);
  for (std::uint64_t i = 0; i < n; ++i) {
    bank.record_ingress(src, uid_base + i);
    bank.record_egress(dst, uid_base + i);
  }
  sketch::TrafficMatrixSnapshot snap;
  snap.epoch_start = 0.0;
  snap.epoch_end = 0.1;
  for (std::size_t i = 0; i < routers; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  return snap;
}

TEST(VictimDetector, AlarmsOnSuddenSurge) {
  VictimDetector::Config cfg;
  cfg.warmup_epochs = 2;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 50;
  VictimDetector det(cfg);
  std::vector<AttackAlarm> alarms;
  det.set_alarm_callback(
      [&](const AttackAlarm& a, const sketch::TrafficMatrixSnapshot&) {
        alarms.push_back(a);
      });

  // Baseline epochs: ~200 packets to router 1.
  for (int e = 0; e < 5; ++e) {
    det.on_epoch(make_snapshot(3, 0, 1, 200, e * 1000000ULL));
  }
  EXPECT_TRUE(alarms.empty());
  // Surge: 2000 packets.
  det.on_epoch(make_snapshot(3, 0, 1, 2000, 99000000ULL));
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].router, 1u);
  EXPECT_GT(alarms[0].observed, alarms[0].baseline * 2.0);
  EXPECT_TRUE(det.alarming(1));
  EXPECT_FALSE(det.alarming(0));
}

TEST(VictimDetector, NoAlarmDuringWarmup) {
  VictimDetector::Config cfg;
  cfg.warmup_epochs = 10;
  VictimDetector det(cfg);
  int alarms = 0;
  det.set_alarm_callback(
      [&](const AttackAlarm&, const sketch::TrafficMatrixSnapshot&) {
        ++alarms;
      });
  det.on_epoch(make_snapshot(2, 0, 1, 100));
  det.on_epoch(make_snapshot(2, 0, 1, 5000, 1000000));
  EXPECT_EQ(alarms, 0);
}

TEST(VictimDetector, AbsoluteFloorSuppressesTinyTraffic) {
  VictimDetector::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 1000;
  VictimDetector det(cfg);
  int alarms = 0;
  det.set_alarm_callback(
      [&](const AttackAlarm&, const sketch::TrafficMatrixSnapshot&) {
        ++alarms;
      });
  for (int e = 0; e < 3; ++e) {
    det.on_epoch(make_snapshot(2, 0, 1, 20, e * 1000000ULL));
  }
  det.on_epoch(make_snapshot(2, 0, 1, 200, 99000000ULL));  // 10x but tiny
  EXPECT_EQ(alarms, 0);
}

TEST(VictimDetector, ClearsWhenTrafficSubsides) {
  VictimDetector::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.0;
  cfg.clear_factor = 1.5;
  cfg.min_packets_per_epoch = 50;
  VictimDetector det(cfg);
  std::vector<sim::NodeId> cleared;
  det.set_clear_callback(
      [&](sim::NodeId r, double) { cleared.push_back(r); });

  for (int e = 0; e < 3; ++e) {
    det.on_epoch(make_snapshot(2, 0, 1, 200, e * 1000000ULL));
  }
  det.on_epoch(make_snapshot(2, 0, 1, 2000, 90000000ULL));  // alarm
  EXPECT_TRUE(det.alarming(1));
  det.on_epoch(make_snapshot(2, 0, 1, 210, 91000000ULL));  // back to normal
  EXPECT_FALSE(det.alarming(1));
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_EQ(cleared[0], 1u);
}

TEST(VictimDetector, ClearsWhenAttackSubsidesBelowTriggerFloor) {
  // Regression: the trigger path floors at min_packets_per_epoch, but the
  // clear path used to check only d < clear_factor * max(base, 1). With a
  // small frozen baseline (30 << floor 100) an attack subsiding to
  // 50 pkts/epoch — below the floor, i.e. unable to ever re-trigger —
  // kept the router alarming forever and the baseline frozen.
  VictimDetector::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.5;
  cfg.clear_factor = 1.5;
  cfg.min_packets_per_epoch = 100;
  VictimDetector det(cfg);
  std::vector<sim::NodeId> cleared;
  det.set_clear_callback(
      [&](sim::NodeId r, double) { cleared.push_back(r); });

  // Small baseline (~30/epoch), well under the alarm floor.
  for (int e = 0; e < 3; ++e) {
    det.on_epoch(make_snapshot(2, 0, 1, 30, e * 1000000ULL));
  }
  EXPECT_FALSE(det.alarming(1));
  det.on_epoch(make_snapshot(2, 0, 1, 3000, 90000000ULL));  // alarm
  ASSERT_TRUE(det.alarming(1));
  // Subside to 50/epoch: above 1.5 * 30 = 45, but below the 100 floor.
  // Must clear (and keep clearing on repeat epochs, baseline thawed).
  det.on_epoch(make_snapshot(2, 0, 1, 50, 91000000ULL));
  EXPECT_FALSE(det.alarming(1));
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_EQ(cleared[0], 1u);
  det.on_epoch(make_snapshot(2, 0, 1, 50, 92000000ULL));
  EXPECT_FALSE(det.alarming(1));
  EXPECT_GT(det.baseline(1), 30.0);  // baseline resumed tracking
}

TEST(VictimDetector, ConfiguredEwmaAlphaChangesDetection) {
  // Regression for the dead RouterState{0.3} member default: a
  // non-default ewma_alpha must actually change when the detector fires.
  // Baseline ramps 100, 200, ..., then a 900-packet epoch arrives. With
  // alpha=1.0 the baseline tracks the last sample (400) so 900 < 2.5*400
  // stays quiet; with a tiny alpha the baseline barely moves off 100 and
  // 900 > 2.5*~110 alarms.
  const auto alarms_with_alpha = [](double alpha) {
    VictimDetector::Config cfg;
    cfg.warmup_epochs = 1;
    cfg.trigger_factor = 2.5;
    cfg.min_packets_per_epoch = 50;
    cfg.ewma_alpha = alpha;
    VictimDetector det(cfg);
    for (int e = 1; e <= 4; ++e) {
      det.on_epoch(make_snapshot(2, 0, 1, 100ULL * e, e * 1000000ULL));
    }
    det.on_epoch(make_snapshot(2, 0, 1, 900, 99000000ULL));
    return det.alarms_raised();
  };
  EXPECT_EQ(alarms_with_alpha(1.0), 0u);
  EXPECT_EQ(alarms_with_alpha(0.05), 1u);
}

TEST(VictimDetector, BaselineFrozenWhileAlarming) {
  VictimDetector::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 50;
  VictimDetector det(cfg);
  for (int e = 0; e < 3; ++e) {
    det.on_epoch(make_snapshot(2, 0, 1, 200, e * 1000000ULL));
  }
  const double base_before = det.baseline(1);
  for (int e = 0; e < 5; ++e) {  // sustained attack epochs
    det.on_epoch(make_snapshot(2, 0, 1, 3000, (10 + e) * 1000000ULL));
  }
  EXPECT_TRUE(det.alarming(1));
  EXPECT_NEAR(det.baseline(1), base_before, base_before * 0.05);
}

TEST(AtrIdentifier, SelectsContributingIngress) {
  // Router 0 sends 5000 packets to victim router 2; router 1 sends 100.
  sketch::RouterSketchBank bank(4, 12, 5);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    bank.record_ingress(0, i);
    bank.record_egress(2, i);
  }
  for (std::uint64_t i = 100000; i < 100100; ++i) {
    bank.record_ingress(1, i);
    bank.record_egress(2, i);
  }
  sketch::TrafficMatrixSnapshot snap;
  for (std::size_t i = 0; i < 4; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }

  AtrConfig cfg;
  cfg.share_threshold = 0.3;
  cfg.min_intersection = 50;
  const auto atrs = identify_atrs(snap, 2, cfg);
  ASSERT_GE(atrs.size(), 1u);
  EXPECT_EQ(atrs[0].router, 0u);
  EXPECT_GT(atrs[0].share, 0.5);
}

TEST(AtrIdentifier, ExcludesVictimRouterAndRespectsCap) {
  sketch::RouterSketchBank bank(5, 12, 5);
  for (sim::NodeId r = 0; r < 4; ++r) {
    for (std::uint64_t i = 0; i < 3000; ++i) {
      const std::uint64_t uid = r * 1000000ULL + i;
      bank.record_ingress(r, uid);
      bank.record_egress(4, uid);
    }
  }
  sketch::TrafficMatrixSnapshot snap;
  for (std::size_t i = 0; i < 5; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  AtrConfig cfg;
  cfg.share_threshold = 0.05;
  cfg.min_intersection = 100;
  cfg.max_atrs = 2;
  const auto atrs = identify_atrs(snap, 4, cfg);
  EXPECT_EQ(atrs.size(), 2u);
  for (const auto& a : atrs) EXPECT_NE(a.router, 4u);
}

TEST(AtrIdentifier, EmptySnapshotYieldsNothing) {
  sketch::RouterSketchBank bank(3, 10, 1);
  sketch::TrafficMatrixSnapshot snap;
  for (std::size_t i = 0; i < 3; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  EXPECT_TRUE(identify_atrs(snap, 2, {}).empty());
}

}  // namespace
}  // namespace mafic::pushback
