#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mafic::scenario {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.total_flows = 20;
  cfg.router_count = 12;
  cfg.seed = 7;
  cfg.end_time = 8.0;
  return cfg;
}

TEST(ExperimentIntegration, ScriptedTriggerProducesPaperBandMetrics) {
  Experiment exp(small_config());
  const auto r = exp.run();
  const auto& m = r.metrics;
  ASSERT_TRUE(m.triggered);
  EXPECT_NEAR(m.trigger_time, 2.7, 1e-9);
  EXPECT_GT(m.alpha, 0.97);
  EXPECT_LT(m.theta_n, 0.03);
  EXPECT_LT(m.lr, 0.12);
  EXPECT_GE(m.theta_p, 0.0);
  EXPECT_LT(m.theta_p, 0.01);
  EXPECT_GT(m.beta, 0.5);
  EXPECT_NEAR(m.alpha + m.theta_n, 1.0, 1e-9);  // complementary by definition
}

TEST(ExperimentIntegration, FlowCountsFollowGamma) {
  auto cfg = small_config();
  cfg.total_flows = 40;
  cfg.tcp_fraction = 0.75;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_EQ(r.legit_flows, 30u);
  EXPECT_EQ(r.attack_flows, 10u);
}

TEST(ExperimentIntegration, AtLeastOneZombieWheneverGammaBelowOne) {
  auto cfg = small_config();
  cfg.total_flows = 10;
  cfg.tcp_fraction = 0.99;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_EQ(r.attack_flows, 1u);
  EXPECT_EQ(r.legit_flows, 9u);
}

TEST(ExperimentIntegration, DeterministicAcrossRuns) {
  const auto cfg = small_config();
  Experiment a(cfg), b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.events_processed, rb.events_processed);
  EXPECT_DOUBLE_EQ(ra.metrics.alpha, rb.metrics.alpha);
  EXPECT_DOUBLE_EQ(ra.metrics.lr, rb.metrics.lr);
  EXPECT_EQ(ra.metrics.malicious_offered, rb.metrics.malicious_offered);
}

TEST(ExperimentIntegration, SeedsChangeOutcomes) {
  auto cfg = small_config();
  Experiment a(cfg);
  cfg.seed = 99;
  Experiment b(cfg);
  EXPECT_NE(a.run().events_processed, b.run().events_processed);
}

TEST(ExperimentIntegration, AttackIsCutAtVictimLink) {
  Experiment exp(small_config());
  const auto r = exp.run();
  const auto& series = r.victim_offered_bytes;
  const double flood = series.rate_between(2.3, 2.7) * 8.0;
  const double after = series.rate_between(3.5, 4.5) * 8.0;
  EXPECT_GT(flood, 2.0 * after);
}

TEST(ExperimentIntegration, TcpRecoversAfterCut) {
  Experiment exp(small_config());
  const auto r = exp.run();
  const auto& series = r.victim_offered_bytes;
  // Legitimate traffic resumes: late-run rate is well above the probation
  // trough right after the trigger.
  const double trough = series.rate_between(2.74, 2.80) * 8.0;
  const double late = series.rate_between(6.0, 8.0) * 8.0;
  EXPECT_GT(late, trough);
}

TEST(ExperimentIntegration, NoDefenseMeansNoTriggerAndNoDrops) {
  auto cfg = small_config();
  cfg.defense = DefenseKind::kNone;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_FALSE(r.metrics.triggered);
  EXPECT_EQ(r.sft_admissions, 0u);
}

TEST(ExperimentIntegration, ProportionalBaselineHurtsLegitMore) {
  auto cfg = small_config();
  cfg.end_time = 10.0;
  Experiment mafic_exp(cfg);
  const auto mafic_r = mafic_exp.run();

  cfg.defense = DefenseKind::kProportional;
  Experiment prop_exp(cfg);
  const auto prop_r = prop_exp.run();

  ASSERT_TRUE(prop_r.metrics.triggered);
  // Flow-blind dropping keeps eating legitimate packets forever.
  EXPECT_GT(prop_r.metrics.lr, 3.0 * std::max(mafic_r.metrics.lr, 0.001));
  // Both cut the attack hard, though.
  EXPECT_GT(prop_r.metrics.alpha, 0.8);
}

TEST(ExperimentIntegration, AggregateBaselineCutsTraffic) {
  auto cfg = small_config();
  cfg.defense = DefenseKind::kAggregate;
  cfg.aggregate.limit_bps = 200e3;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  EXPECT_GT(r.metrics.alpha, 0.5);   // blunt but effective on volume
  EXPECT_GT(r.metrics.lr, 0.02);     // and indiscriminate
}

TEST(ExperimentIntegration, DetectorModeTriggersOnFlood) {
  auto cfg = small_config();
  cfg.trigger = TriggerMode::kDetector;
  cfg.end_time = 10.0;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Detection happens after the attack begins and within ~1.5 s.
  EXPECT_GT(r.metrics.trigger_time, cfg.attack_start);
  EXPECT_LT(r.metrics.trigger_time, cfg.attack_start + 1.5);
  EXPECT_GT(r.metrics.alpha, 0.9);
}

TEST(ExperimentIntegration, DetectorModeIdentifiesZombieRouters) {
  auto cfg = small_config();
  cfg.trigger = TriggerMode::kDetector;
  cfg.total_flows = 30;
  cfg.tcp_fraction = 0.9;  // 3 zombies
  cfg.end_time = 10.0;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Every ground-truth attack router should be found (recall), since the
  // flood dominates the matrix column.
  EXPECT_GE(r.atr.recall, 0.99);
}

TEST(ExperimentIntegration, ZombieRouterScopeSparesRemoteLegitFlows) {
  auto cfg = small_config();
  cfg.atr_scope = AtrScope::kZombieRouters;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Oracle scoping still kills the attack...
  EXPECT_GT(r.metrics.alpha, 0.97);
  // ...and collateral is not worse than the all-ingress default.
  EXPECT_LT(r.metrics.lr, 0.12);
}

TEST(ExperimentIntegration, ScriptedAtrDiagnosticsCoverEveryDefenseKind) {
  // atr.identified lists the routers the scripted trigger activated,
  // whatever actuator sits there: every ingress router, or the zombie
  // routers under oracle scoping.
  for (const DefenseKind kind :
       {DefenseKind::kMafic, DefenseKind::kProportional,
        DefenseKind::kAggregate}) {
    for (const AtrScope scope :
         {AtrScope::kAllIngress, AtrScope::kZombieRouters}) {
      SCOPED_TRACE(testing::Message() << "kind " << int(kind) << " scope "
                                      << int(scope));
      auto cfg = small_config();
      cfg.defense = kind;
      cfg.atr_scope = scope;
      Experiment exp(cfg);
      exp.run_until(cfg.scripted_trigger_time - 0.1);
      EXPECT_TRUE(exp.snapshot_result().atr.identified.empty());
      exp.run_until(cfg.scripted_trigger_time + 0.1);
      const auto r = exp.snapshot_result();

      std::vector<sim::NodeId> expected = r.atr.ground_truth;
      if (scope == AtrScope::kAllIngress) {
        expected.clear();
        for (const auto& access : exp.domain().access_links()) {
          expected.push_back(access.router);
        }
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
      }
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(r.atr.identified, expected);
      EXPECT_DOUBLE_EQ(r.atr.recall, 1.0);
      if (scope == AtrScope::kZombieRouters) {
        EXPECT_DOUBLE_EQ(r.atr.precision, 1.0);
      }

      if (kind == DefenseKind::kMafic) {
        // Unchanged for MAFIC: exactly the routers with an active filter.
        std::vector<sim::NodeId> active;
        for (const auto* f : exp.sharded_filters()) {
          if (f->active()) active.push_back(f->atr_node_id());
        }
        std::sort(active.begin(), active.end());
        active.erase(std::unique(active.begin(), active.end()),
                     active.end());
        EXPECT_EQ(r.atr.identified, active);
      }
    }
  }

  auto none = small_config();
  none.defense = DefenseKind::kNone;
  Experiment exp(none);
  exp.run_until(none.scripted_trigger_time + 0.1);
  EXPECT_TRUE(exp.snapshot_result().atr.identified.empty());
}

TEST(ExperimentIntegration, FilterConservation) {
  Experiment exp(small_config());
  exp.run();
  for (const auto* f : exp.sharded_filters()) {
    const auto& s = f->stats();
    EXPECT_EQ(s.offered,
              s.forwarded + s.dropped_probation + s.dropped_pdt)
        << "packets must be either forwarded or dropped";
  }
}

TEST(ExperimentIntegration, TablesPartitionFlows) {
  Experiment exp(small_config());
  const auto r = exp.run();
  // Every admitted probation resolved into exactly one table (none left
  // suspended at the end beyond flows that went quiet mid-window).
  EXPECT_EQ(r.sft_admissions, r.moved_to_nft + r.moved_to_pdt +
                                  [&] {
                                    std::size_t pending = 0;
                                    for (const auto* f :
                                         exp.sharded_filters()) {
                                      pending +=
                                          f->engine(0).tables().sft_size();
                                    }
                                    return pending;
                                  }());
}

TEST(ExperimentIntegration, SpoofedIllegalSourcesAreScreened) {
  auto cfg = small_config();
  cfg.spoofing.legitimate_weight = 0.0;
  cfg.spoofing.illegal_weight = 0.5;
  cfg.spoofing.unreachable_weight = 0.5;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_GT(r.screened_sources, 0u);
  EXPECT_GT(r.metrics.alpha, 0.97);
}

TEST(ExperimentIntegration, SnapshotResultMidRun) {
  Experiment exp(small_config());
  exp.run_until(1.0);  // before the attack
  const auto early = exp.snapshot_result();
  EXPECT_FALSE(early.metrics.triggered);
  exp.run_until(8.0);
  const auto late = exp.snapshot_result();
  EXPECT_TRUE(late.metrics.triggered);
}

}  // namespace
}  // namespace mafic::scenario
