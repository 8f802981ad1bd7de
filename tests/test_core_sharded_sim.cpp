// ShardedMaficFilter: the sharded datapath inside the discrete-event
// simulator. Pins (1) the scripted scalar-vs-sharded equivalence — a
// ShardedMaficFilter makes identical per-flow classification decisions
// for 1 and N shards, because all cross-flow coupling (tables, timers,
// RTT estimates, coins) is gone; and
// (2) the end-to-end golden equivalence: two full Experiments differing
// only in num_shards (1 vs 4), with burst links, produce identical
// classification decisions, probe counts and metrics at a fixed seed.

#include "core/sharded_mafic_filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "scenario/experiment.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {
namespace {

sim::FlowLabel label_for(std::uint32_t i) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff),
          util::make_addr(172, 17, 0, 1), std::uint16_t(1024 + i), 80};
}

struct FlowOutcome {
  TableKind dest = TableKind::kNone;
  std::uint32_t baseline = 0;
  std::uint32_t probe = 0;

  friend bool operator==(const FlowOutcome&, const FlowOutcome&) = default;
};

/// Drives a ShardedMaficFilter with a scripted schedule (the four flow
/// behaviors of the classification regression) and returns per-flow
/// outcomes plus the drop count.
struct ScriptedRun {
  std::map<std::uint64_t, FlowOutcome> outcomes;
  std::uint64_t dropped = 0;
  std::uint64_t probes = 0;
};

ScriptedRun run_scripted(std::size_t num_shards) {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::PacketFactory factory;

  MaficConfig cfg;
  cfg.default_rtt = 0.04;  // 0.08 s probation windows
  cfg.drop_probability = 0.9;
  cfg.probe_enabled = false;  // no wired topology in this fixture
  cfg.coin_seed = 0xfeedULL;

  ShardedMaficFilter filter(&sim, &factory, atr, num_shards, cfg, nullptr);
  class Sink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr) override {}
  } sink;
  filter.set_target(&sink);
  filter.activate({util::make_addr(172, 17, 0, 1)});

  ScriptedRun run;
  filter.set_classification_callback(
      [&](const SftEntry& e, TableKind dest) {
        run.outcomes[e.key] =
            FlowOutcome{dest, e.baseline_count, e.probe_count};
      });

  const auto send = [&](std::uint32_t flow, double t) {
    sim.schedule_at(t, [&, flow] {
      auto p = factory.make();
      p->label = label_for(flow);
      p->proto = sim::Protocol::kTcp;
      p->size_bytes = 1000;
      filter.recv(std::move(p));
    });
  };
  for (std::uint32_t i = 0; i < 64; ++i) {
    const double phase = 1e-4 * double(i);
    switch (i % 4) {
      case 0:  // steady fast
        for (double t = 0.01; t < 0.5; t += 0.004) send(i, t + phase);
        break;
      case 1:  // halves its rate mid-probation
        for (double t = 0.01; t < 0.05; t += 0.004) send(i, t + phase);
        for (double t = 0.05; t < 0.5; t += 0.008) send(i, t + phase);
        break;
      case 2:  // trickle
        for (double t = 0.02; t < 0.5; t += 0.09) send(i, t + phase);
        break;
      case 3:  // stops mid-probation
        for (double t = 0.01; t < 0.055; t += 0.004) send(i, t + phase);
        break;
    }
  }
  sim.run();
  const FilterEngine::Stats stats = filter.stats();
  run.dropped = stats.dropped_probation + stats.dropped_pdt;
  run.probes = stats.probes_issued;
  return run;
}

TEST(ShardedMaficFilter, ScriptedDecisionsIdenticalAcrossShardCounts) {
  const ScriptedRun one = run_scripted(1);
  const ScriptedRun four = run_scripted(4);
  const ScriptedRun eight = run_scripted(8);

  ASSERT_EQ(one.outcomes.size(), 64u);
  EXPECT_EQ(one.outcomes, four.outcomes);
  EXPECT_EQ(one.outcomes, eight.outcomes);
  // Not just the same destinations — the same packets were dropped.
  EXPECT_EQ(one.dropped, four.dropped);
  EXPECT_EQ(one.dropped, eight.dropped);
}

TEST(ShardedMaficFilter, ShardPartitionIsRespected) {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::PacketFactory factory;

  MaficConfig cfg;
  cfg.drop_probability = 1.0;  // admit every flow on first sight
  cfg.probe_enabled = false;
  ShardedMaficFilter filter(&sim, &factory, atr, 4, cfg, nullptr);
  class Sink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr) override {}
  } sink;
  filter.set_target(&sink);
  filter.activate({util::make_addr(172, 17, 0, 1)});

  for (std::uint32_t i = 0; i < 256; ++i) {
    auto p = factory.make();
    p->label = label_for(i);
    p->proto = sim::Protocol::kTcp;
    p->size_bytes = 1000;
    filter.recv(std::move(p));
  }
  // Every flow admitted exactly once, on its home shard.
  std::size_t resident = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const FlowTables& t = filter.engine(s).tables();
    EXPECT_GT(t.sft_size(), 0u) << "shard " << s << " starved";
    resident += t.resident();
  }
  EXPECT_EQ(resident, 256u);
  EXPECT_EQ(filter.stats().dropped_probation, 256u);

  filter.deactivate();
  EXPECT_FALSE(filter.active());
  EXPECT_EQ(filter.sharded().resident(), 0u);
}

/// The tentpole acceptance property: full figure-bench-shaped runs that
/// differ only in num_shards make identical classification decisions.
TEST(ShardedExperiment, GoldenEquivalenceScalarVsShardedWithBursts) {
  scenario::ExperimentConfig base;
  base.seed = 7;
  base.total_flows = 24;
  base.router_count = 10;
  base.end_time = 6.0;
  base.link_burst_size = 8;

  const auto run = [&](std::size_t shards) {
    scenario::ExperimentConfig cfg = base;
    cfg.num_shards = shards;
    scenario::Experiment exp(cfg);
    return exp.run();
  };
  const scenario::ExperimentResult one = run(1);
  const scenario::ExperimentResult four = run(4);

  // Classification decisions: identical per victim, table by table.
  ASSERT_EQ(one.per_victim.size(), four.per_victim.size());
  for (std::size_t i = 0; i < one.per_victim.size(); ++i) {
    EXPECT_EQ(one.per_victim[i].victim, four.per_victim[i].victim);
    EXPECT_EQ(one.per_victim[i].decided_nice,
              four.per_victim[i].decided_nice);
    EXPECT_EQ(one.per_victim[i].decided_malicious,
              four.per_victim[i].decided_malicious);
    EXPECT_EQ(one.per_victim[i].screened_sources,
              four.per_victim[i].screened_sources);
  }
  EXPECT_GT(one.sft_admissions, 0u);
  EXPECT_EQ(one.sft_admissions, four.sft_admissions);
  EXPECT_EQ(one.moved_to_nft, four.moved_to_nft);
  EXPECT_EQ(one.moved_to_pdt, four.moved_to_pdt);
  EXPECT_EQ(one.screened_sources, four.screened_sources);
  EXPECT_EQ(one.probes_issued, four.probes_issued);

  // The whole simulation stayed in lockstep, not just the verdict sums.
  EXPECT_EQ(one.events_processed, four.events_processed);
  EXPECT_EQ(one.metrics.malicious_dropped, four.metrics.malicious_dropped);
  EXPECT_EQ(one.metrics.legit_dropped, four.metrics.legit_dropped);
  EXPECT_EQ(one.metrics.alpha, four.metrics.alpha);
  EXPECT_FALSE(std::isnan(one.metrics.alpha));
}

/// Bursts actually reach the batched path (the sim would silently fall
/// back to per-packet delivery if the plumbing regressed).
TEST(ShardedExperiment, BurstsReachTheShardedFilters) {
  scenario::ExperimentConfig cfg;
  cfg.seed = 11;
  cfg.total_flows = 24;
  cfg.router_count = 10;
  cfg.end_time = 5.0;
  cfg.num_shards = 4;
  cfg.link_burst_size = 8;

  scenario::Experiment exp(cfg);
  const scenario::ExperimentResult r = exp.run();
  std::size_t max_burst = 0;
  std::uint64_t probes = 0;
  for (const auto* f : exp.sharded_filters()) {
    max_burst = std::max(max_burst, f->max_burst_seen());
    for (std::size_t s = 0; s < f->num_shards(); ++s) {
      probes += f->shard_probes(s);
    }
  }
  EXPECT_GT(exp.sharded_filters().size(), 0u);
  EXPECT_GT(max_burst, 1u) << "no burst ever reached a sharded filter";
  EXPECT_GT(probes, 0u) << "per-shard probe sinks never fired";
  EXPECT_EQ(probes, r.probes_issued);
}

}  // namespace
}  // namespace mafic::core
