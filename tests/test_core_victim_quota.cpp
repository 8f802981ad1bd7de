// Per-victim SFT quotas (MaficConfig::sft_victim_quota): one eviction
// ring + reserved slot budget per protected destination, so a capacity-
// saturating flood at one victim can no longer recycle another victim's
// in-flight probations before their 2 x RTT deadlines.
//
// Layers covered here:
//   * FlowTables quota semantics (self-pay vs cross-class payment,
//     fraction/absolute knob forms, clamping, re-ringing live entries);
//   * a randomized property: per-class ring occupancies always sum to the
//     SFT size, and no class strictly under its quota ever loses an entry
//     to capacity pressure;
//   * engine-level flood isolation (the bug this machinery fixes, shown
//     failing with the quota off and fixed with it on);
//   * weighted reservations (PR 8): per-victim quotas proportional to
//     provisioned bandwidth, incl. the degenerate forms (zero-bandwidth
//     victim, all-zero weights, reservations clamped into the table);
//   * experiment-level wiring (knob -> engines, per-victim eviction
//     counts in ExperimentResult::per_victim, sft_victim_weights ->
//     every engine's reservations).

#include "core/flow_tables.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/sharded_mafic_filter.hpp"
#include "core/standalone_runtime.hpp"
#include "scenario/experiment.hpp"
#include "sim/packet.hpp"
#include "util/rng.hpp"

namespace mafic::core {
namespace {

constexpr util::Addr kVictimA = util::make_addr(172, 17, 0, 1);
constexpr util::Addr kVictimB = util::make_addr(172, 17, 0, 2);
constexpr util::Addr kVictimC = util::make_addr(172, 17, 0, 3);

sim::FlowLabel label_to(util::Addr dst, std::uint32_t i) {
  return {util::make_addr(10, 0, (i >> 8) & 0xff, i & 0xff) + (i << 16), dst,
          std::uint16_t(1000 + (i % 50000)), 80};
}

TEST(VictimQuota, QuotaSlotsFractionAbsoluteAndClamp) {
  {
    MaficConfig cfg;
    cfg.sft_capacity = 16;
    cfg.sft_victim_quota = 0.25;  // fraction of capacity
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB});
    EXPECT_EQ(t.victim_classes(), 2u);
    EXPECT_EQ(t.quota_slots(), 4u);
  }
  {
    MaficConfig cfg;
    cfg.sft_capacity = 16;
    cfg.sft_victim_quota = 5.0;  // absolute slots
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB});
    EXPECT_EQ(t.quota_slots(), 5u);
  }
  {
    // Summed reservations are clamped into the table so an under-quota
    // admitter always finds an over-quota payer.
    MaficConfig cfg;
    cfg.sft_capacity = 8;
    cfg.sft_victim_quota = 0.9;
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB});
    EXPECT_EQ(t.quota_slots(), 4u);  // not 7
  }
  {
    // Quota disabled or a single victim: one shared class, no budget.
    MaficConfig cfg;
    cfg.sft_capacity = 8;
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB});
    EXPECT_EQ(t.victim_classes(), 1u);
    EXPECT_EQ(t.quota_slots(), 0u);
    MaficConfig cfg2;
    cfg2.sft_victim_quota = 0.5;
    FlowTables t2(cfg2);
    t2.set_victim_classes({kVictimA});
    EXPECT_EQ(t2.victim_classes(), 1u);
  }
}

TEST(VictimQuota, OverQuotaAdmitterPaysFromItsOwnRing) {
  MaficConfig cfg;
  cfg.sft_capacity = 8;
  cfg.sft_victim_quota = 3.0;
  FlowTables t(cfg);
  t.set_victim_classes({kVictimA, kVictimB});

  std::vector<std::pair<std::uint64_t, EvictCause>> evicted;
  t.set_eviction_hook([&](const SftEntry& e, EvictCause c) {
    evicted.emplace_back(e.key, c);
  });

  // A holds 6 (3 over quota), B holds 2 (1 under quota): table full.
  std::uint64_t key = 1;
  for (int i = 0; i < 6; ++i, ++key) {
    t.admit_sft(key, label_to(kVictimA, std::uint32_t(key)), double(i), 0.2);
  }
  for (int i = 0; i < 2; ++i, ++key) {
    t.admit_sft(key, label_to(kVictimB, std::uint32_t(key)), double(i), 0.2);
  }
  ASSERT_EQ(t.sft_size(), 8u);

  // A admits again: over quota, so A's own nearest-deadline entry (key 1)
  // goes — B is untouched.
  t.admit_sft(key, label_to(kVictimA, std::uint32_t(key)), 10.0, 0.2);
  ++key;
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 1u);
  EXPECT_EQ(evicted[0].second, EvictCause::kCapacity);
  EXPECT_EQ(t.sft_size_of(kVictimB), 2u);
  EXPECT_EQ(t.stats().quota_evictions, 0u);

  // B admits: under quota (2 < 3), so the most over-quota class (A, over
  // by 3) pays — cause kQuota — and B reaches its reservation.
  t.admit_sft(key, label_to(kVictimB, std::uint32_t(key)), 10.0, 0.2);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1].second, EvictCause::kQuota);
  EXPECT_EQ(t.sft_size_of(kVictimA), 5u);
  EXPECT_EQ(t.sft_size_of(kVictimB), 3u);
  EXPECT_EQ(t.stats().quota_evictions, 1u);
  EXPECT_EQ(t.stats().sft_evictions, 2u);
}

TEST(VictimQuota, RegisteringClassesReRingsLiveProbations) {
  MaficConfig cfg;
  cfg.sft_capacity = 8;
  cfg.sft_victim_quota = 0.5;  // 4 slots per victim once registered
  FlowTables t(cfg);

  // Admit before any registration: everything lands in the one shared
  // class (legacy behaviour).
  for (std::uint64_t k = 1; k <= 4; ++k) {
    t.admit_sft(k, label_to(k % 2 == 0 ? kVictimA : kVictimB,
                            std::uint32_t(k)),
                double(k), 0.2);
  }
  EXPECT_EQ(t.victim_classes(), 1u);
  EXPECT_EQ(t.sft_size_of(kVictimA), 4u);  // shared class holds all

  // Registration re-rings the live probations under their own classes.
  t.set_victim_classes({kVictimA, kVictimB});
  EXPECT_EQ(t.victim_classes(), 2u);
  EXPECT_EQ(t.sft_size_of(kVictimA), 2u);
  EXPECT_EQ(t.sft_size_of(kVictimB), 2u);
  EXPECT_EQ(t.ring_occupancy(), t.sft_size());

  // Re-registering the same set is a no-op; resolving entries afterwards
  // keeps counts coherent (the unlink finds the re-ringed slots).
  t.set_victim_classes({kVictimB, kVictimA});
  t.resolve(2, TableKind::kNice);
  t.resolve(3, TableKind::kPermanentDrop);
  EXPECT_EQ(t.sft_size_of(kVictimA), 1u);
  EXPECT_EQ(t.sft_size_of(kVictimB), 1u);
  EXPECT_EQ(t.ring_occupancy(), t.sft_size());
}

TEST(VictimQuota, ReRingingPreservesNearestDeadlineEviction) {
  // Regression: set_victim_classes must re-ring live probations in
  // ascending deadline order. Inserting in arena order would let the
  // first slot seed the ring cursor and clamp every earlier-deadline
  // slot up to it, so the next capacity eviction would take a fresh
  // probation instead of the one nearest its deadline.
  MaficConfig cfg;
  cfg.sft_capacity = 2;
  cfg.sft_victim_quota = 0.5;  // 1 reserved slot per victim
  FlowTables t(cfg);

  // Arena slot 0 gets the FAR deadline, slot 1 the NEAR one.
  t.admit_sft(1, label_to(kVictimA, 1), 0.0, 10.0);  // deadline 10.0
  t.admit_sft(2, label_to(kVictimA, 2), 0.0, 0.1);   // deadline 0.1
  t.set_victim_classes({kVictimA, kVictimB});

  // A is over its quota of 1: the next A admission self-pays with its
  // nearest-deadline probation — key 2, not the arena-first key 1.
  t.admit_sft(3, label_to(kVictimA, 3), 0.0, 10.0);
  EXPECT_EQ(t.classify(2), TableKind::kNone) << "near-deadline evicted";
  EXPECT_EQ(t.classify(1), TableKind::kSuspicious) << "far-deadline kept";
}

TEST(VictimQuota, PropertyRingOccupancyMatchesQuotaAccounting) {
  // Random admit/resolve/flush churn over three victim classes at a tiny
  // capacity: after every operation the per-class ring occupancies sum to
  // the SFT size, and no class strictly under its reservation ever loses
  // an entry to capacity pressure (the enforced isolation invariant).
  MaficConfig cfg;
  cfg.sft_capacity = 24;
  cfg.sft_victim_quota = 0.25;  // 6 reserved per victim, 6 shared
  FlowTables t(cfg);
  const std::vector<util::Addr> victims{kVictimA, kVictimB, kVictimC};
  t.set_victim_classes(victims);
  const std::size_t quota = t.quota_slots();
  ASSERT_EQ(quota, 6u);

  std::unordered_map<std::uint64_t, util::Addr> live;  // key -> victim
  std::vector<std::uint64_t> live_keys;
  bool in_admit = false;
  t.set_eviction_hook([&](const SftEntry& e, EvictCause c) {
    ASSERT_TRUE(in_admit || c == EvictCause::kFlush);
    if (c != EvictCause::kFlush) {
      // The payer was at/over its reservation when it paid (sft_size_of
      // still counts the entry the hook is handing out).
      EXPECT_GE(t.sft_size_of(e.label.dst), c == EvictCause::kQuota
                                                ? quota + 1
                                                : quota);
    }
    live.erase(e.key);
  });

  util::Rng rng(20260730);
  std::uint64_t next_key = 1;
  for (int step = 0; step < 20000; ++step) {
    const std::size_t op = rng.index(100);
    if (op < 70 || live.empty()) {
      const util::Addr dst = victims[rng.index(victims.size())];
      const std::uint64_t key = next_key++;
      in_admit = true;
      ASSERT_NE(t.admit_sft(key, label_to(dst, std::uint32_t(key)),
                            double(step) * 1e-4, 0.05 + rng.uniform01() * 0.1),
                nullptr);
      in_admit = false;
      live.emplace(key, dst);
    } else if (op < 99) {
      // Resolve a random live probation.
      live_keys.clear();
      for (const auto& [k, dst] : live) live_keys.push_back(k);
      const std::uint64_t key = live_keys[rng.index(live_keys.size())];
      t.resolve(key, rng.index(2) == 0 ? TableKind::kNice
                                       : TableKind::kPermanentDrop);
      live.erase(key);
    } else {
      t.flush();
      live.clear();
    }

    // Quota sums equal ring occupancy equals SFT size, every step.
    ASSERT_EQ(t.ring_occupancy(), t.sft_size()) << "step " << step;
    std::size_t sum = 0;
    std::unordered_map<util::Addr, std::size_t> ref_counts;
    for (const auto& [k, dst] : live) ++ref_counts[dst];
    for (const util::Addr v : victims) {
      ASSERT_EQ(t.sft_size_of(v), ref_counts[v]) << "step " << step;
      sum += t.sft_size_of(v);
    }
    ASSERT_EQ(sum, t.sft_size()) << "step " << step;
    ASSERT_LE(t.sft_size(), cfg.sft_capacity);
  }
  EXPECT_GT(t.stats().sft_evictions, 0u);
  EXPECT_GT(t.stats().quota_evictions, 0u);
}

// --- weighted reservations (provisioned-bandwidth quotas) ----------------

TEST(VictimQuota, WeightedReservationsFollowProvisionedBandwidth) {
  // capacity 32, quota 0.25: the equal path would reserve 8 per victim;
  // the weighted path splits the same 24-slot pool 3:1:0.
  MaficConfig cfg;
  cfg.sft_capacity = 32;
  cfg.sft_victim_quota = 0.25;
  FlowTables t(cfg);
  t.set_victim_classes({kVictimA, kVictimB, kVictimC}, {3.0, 1.0, 0.0});
  EXPECT_EQ(t.victim_classes(), 3u);
  EXPECT_EQ(t.quota_slots_of(kVictimA), 18u);  // 24 * 3/4
  EXPECT_EQ(t.quota_slots_of(kVictimB), 6u);   // 24 * 1/4
  EXPECT_EQ(t.quota_slots_of(kVictimC), 0u);   // zero-bandwidth: no reserve

  // Weights ride the victims through the canonical address sort, so the
  // caller's ordering cannot change anyone's reservation.
  FlowTables u(cfg);
  u.set_victim_classes({kVictimC, kVictimA, kVictimB}, {0.0, 3.0, 1.0});
  EXPECT_EQ(u.quota_slots_of(kVictimA), 18u);
  EXPECT_EQ(u.quota_slots_of(kVictimB), 6u);
  EXPECT_EQ(u.quota_slots_of(kVictimC), 0u);
}

TEST(VictimQuota, WeightedDegenerateFormsFallBackSafely) {
  MaficConfig cfg;
  cfg.sft_capacity = 16;
  cfg.sft_victim_quota = 0.25;  // pool = 8 over two victims
  {
    // All-zero weights mean "no preference": the equal split survives.
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB}, {0.0, 0.0});
    EXPECT_EQ(t.quota_slots_of(kVictimA), 4u);
    EXPECT_EQ(t.quota_slots_of(kVictimB), 4u);
  }
  {
    // Equal weights are byte-identical to the unweighted knob.
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB}, {2.0, 2.0});
    EXPECT_EQ(t.quota_slots_of(kVictimA), t.quota_slots());
    EXPECT_EQ(t.quota_slots_of(kVictimB), t.quota_slots());
  }
  {
    // A negative weight clamps to zero instead of corrupting the pool.
    FlowTables t(cfg);
    t.set_victim_classes({kVictimA, kVictimB}, {1.0, -5.0});
    EXPECT_EQ(t.quota_slots_of(kVictimA), 8u);  // the whole pool
    EXPECT_EQ(t.quota_slots_of(kVictimB), 0u);
  }
}

TEST(VictimQuota, WeightedReservationsClampIntoTheTable) {
  // Same guarantee as the unweighted clamp: summed reservations fit in
  // the table even when the knob asks for more (0.9 x 8 = 7 slots EACH
  // here), so an under-quota admitter always finds an over-quota payer.
  MaficConfig cfg;
  cfg.sft_capacity = 8;
  cfg.sft_victim_quota = 0.9;
  FlowTables t(cfg);
  t.set_victim_classes({kVictimA, kVictimB}, {3.0, 1.0});
  EXPECT_EQ(t.quota_slots_of(kVictimA), 6u);  // pool 8, split 3:1
  EXPECT_EQ(t.quota_slots_of(kVictimB), 2u);
  EXPECT_LE(t.quota_slots_of(kVictimA) + t.quota_slots_of(kVictimB),
            cfg.sft_capacity);
}

TEST(VictimQuota, ZeroWeightVictimAdmitsViaOverflowOnly) {
  // A zero-bandwidth victim holds no reservation: anything it has is
  // reclaimable by an under-quota victim, and its own admissions under
  // pressure always self-pay.
  MaficConfig cfg;
  cfg.sft_capacity = 8;
  cfg.sft_victim_quota = 3.0;  // pool = 2 x min(3, 4) = 6
  FlowTables t(cfg);
  t.set_victim_classes({kVictimA, kVictimB}, {1.0, 0.0});
  ASSERT_EQ(t.quota_slots_of(kVictimA), 6u);
  ASSERT_EQ(t.quota_slots_of(kVictimB), 0u);

  std::vector<std::pair<util::Addr, EvictCause>> evicted;
  t.set_eviction_hook([&](const SftEntry& e, EvictCause c) {
    evicted.emplace_back(e.label.dst, c);
  });

  // B fills the whole table: every slot it holds is over its zero
  // reservation (overflow capacity, lent while nobody else wants it).
  std::uint64_t key = 1;
  for (int i = 0; i < 8; ++i, ++key) {
    t.admit_sft(key, label_to(kVictimB, std::uint32_t(key)), double(i), 0.2);
  }
  ASSERT_EQ(t.sft_size(), 8u);
  ASSERT_TRUE(evicted.empty());

  // A admits: far under its quota of 6, so B pays — cause kQuota.
  t.admit_sft(key, label_to(kVictimA, std::uint32_t(key)), 10.0, 0.2);
  ++key;
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, kVictimB);
  EXPECT_EQ(evicted[0].second, EvictCause::kQuota);
  EXPECT_EQ(t.sft_size_of(kVictimA), 1u);
  EXPECT_EQ(t.sft_size_of(kVictimB), 7u);
  EXPECT_EQ(t.stats().quota_evictions, 1u);

  // B admits again while full: any occupancy is over quota, so it
  // self-pays with its own nearest-deadline probation — A untouched.
  t.admit_sft(key, label_to(kVictimB, std::uint32_t(key)), 10.0, 0.2);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1].first, kVictimB);
  EXPECT_EQ(evicted[1].second, EvictCause::kCapacity);
  EXPECT_EQ(t.sft_size_of(kVictimA), 1u);
}

TEST(VictimQuota, EngineWeightsAreConsumedAtActivation) {
  // FilterEngine::set_victim_weights stages weights that the next
  // activate() resolves against its victim set; victims without a staged
  // weight default to 1.0.
  MaficConfig cfg;
  cfg.sft_capacity = 32;
  cfg.sft_victim_quota = 0.25;  // pool = 16 over two victims
  {
    EngineRuntime rt(cfg, nullptr);
    FilterEngine& eng = rt.engine();
    eng.set_victim_weights({{kVictimB, 1.0}, {kVictimA, 3.0}});
    eng.activate({kVictimA, kVictimB});
    EXPECT_EQ(eng.tables().quota_slots_of(kVictimA), 12u);
    EXPECT_EQ(eng.tables().quota_slots_of(kVictimB), 4u);
  }
  {
    // Only A staged: B weighs 1.0 by default, same 3:1 split.
    EngineRuntime rt(cfg, nullptr);
    FilterEngine& eng = rt.engine();
    eng.set_victim_weights({{kVictimA, 3.0}});
    eng.activate({kVictimA, kVictimB});
    EXPECT_EQ(eng.tables().quota_slots_of(kVictimA), 12u);
    EXPECT_EQ(eng.tables().quota_slots_of(kVictimB), 4u);
  }
  {
    // No weights staged: the unweighted equal split, unchanged.
    EngineRuntime rt(cfg, nullptr);
    FilterEngine& eng = rt.engine();
    eng.activate({kVictimA, kVictimB});
    EXPECT_EQ(eng.tables().quota_slots_of(kVictimA), 8u);
    EXPECT_EQ(eng.tables().quota_slots_of(kVictimB), 8u);
  }
}

// --- engine-level flood isolation ---------------------------------------

struct FloodOutcome {
  std::uint64_t b_evictions = 0;
  std::uint64_t a_evictions = 0;
  std::size_t b_live_after_flood = 0;
  std::uint64_t b_decided = 0;
};

/// Floods victim A with `flood` fresh single-packet flows after parking a
/// handful of victim-B probations, then fires the decision timers.
FloodOutcome run_flood(double quota) {
  MaficConfig cfg;
  cfg.sft_capacity = 32;
  cfg.sft_victim_quota = quota;
  cfg.drop_probability = 1.0;  // every fresh flow admits on first sight
  cfg.probe_enabled = false;
  EngineRuntime rt(cfg, nullptr);
  FilterEngine& eng = rt.engine();
  eng.activate({kVictimA, kVictimB});

  const auto offer = [&](util::Addr dst, std::uint32_t i) {
    sim::Packet p;
    p.label = label_to(dst, i);
    p.proto = sim::Protocol::kTcp;
    p.size_bytes = 250;
    eng.inspect(p);
  };

  // Victim B: 4 probations in flight (inside any sane quota).
  for (std::uint32_t i = 0; i < 4; ++i) offer(kVictimB, i);
  EXPECT_EQ(eng.tables().sft_size_of(kVictimB), 4u) << "setup";

  // Victim A: a zombie flood of fresh labels runs the SFT to capacity and
  // keeps churning it (every admission past capacity evicts).
  for (std::uint32_t i = 0; i < 500; ++i) offer(kVictimA, 1000 + i);

  FloodOutcome out;
  out.b_live_after_flood = eng.tables().sft_size_of(kVictimB);
  const auto& per = eng.victim_stats();
  if (const auto it = per.find(kVictimB); it != per.end()) {
    out.b_evictions = it->second.evictions;
  }
  if (const auto it = per.find(kVictimA); it != per.end()) {
    out.a_evictions = it->second.evictions;
  }

  // Let the surviving probations reach their 2 x RTT decisions.
  rt.advance_until(1.0);
  if (const auto it = per.find(kVictimB); it != per.end()) {
    out.b_decided =
        it->second.decided_nice + it->second.decided_malicious;
  }
  return out;
}

TEST(VictimQuota, FloodAtOneVictimCannotEvictAnothersProbations) {
  // Quota on: victim B's probations survive victim A's capacity-
  // saturating flood untouched and all reach their decisions.
  const FloodOutcome quota_on = run_flood(0.25);
  EXPECT_EQ(quota_on.b_evictions, 0u);
  EXPECT_EQ(quota_on.b_live_after_flood, 4u);
  EXPECT_EQ(quota_on.b_decided, 4u);
  EXPECT_GT(quota_on.a_evictions, 400u);  // the flood paid for itself

  // Quota off (the pre-fix behaviour this PR turns into an invariant):
  // the same flood recycles B's probations before their deadlines, so
  // none of them ever reaches a decision. (b_live is not meaningful here:
  // with quotas off sft_size_of reports the single shared ring.)
  const FloodOutcome quota_off = run_flood(0.0);
  EXPECT_EQ(quota_off.b_evictions, 4u);
  EXPECT_EQ(quota_off.b_decided, 0u);
}

}  // namespace
}  // namespace mafic::core

// --- experiment-level wiring --------------------------------------------

namespace mafic::scenario {
namespace {

TEST(VictimQuotaExperiment, KnobFlowsToEnginesAndPerVictimEvictionCounts) {
  // A per-packet-spoofed zombie flood aimed at the extra victim churns a
  // deliberately tiny SFT at its ATR (the spoof pool of ~50 legitimate
  // host addresses keeps re-manufacturing untabled labels faster than
  // probations can resolve); with the quota on, the primary victim's
  // probations are never evicted and the per-victim breakdown reports
  // the flood victim's (self-paid) churn.
  ExperimentConfig cfg;
  cfg.seed = 11;
  cfg.total_flows = 50;
  cfg.tcp_fraction = 0.98;  // 49 legit TCP flows + 1 zombie
  cfg.router_count = 8;
  cfg.extra_victims = 1;    // zombie is flow 50 -> targets the extra victim
  cfg.per_packet_spoofing = true;
  cfg.sft_victim_quota = 0.25;
  cfg.mafic.sft_capacity = 16;
  cfg.end_time = 4.5;

  Experiment exp(cfg);
  const ExperimentResult r = exp.run();

  ASSERT_EQ(r.per_victim.size(), 2u);
  // The flood victim's ATR churned its SFT (every admission past
  // capacity evicts one of the flood's own probations)...
  EXPECT_GT(r.per_victim[1].evictions, 100u);
  // ...while the primary victim's probations were never evicted, and no
  // cross-victim payment was ever needed (the flood never exceeded its
  // own victim's entitlement at any other ATR).
  EXPECT_EQ(r.per_victim[0].evictions, 0u);
  EXPECT_EQ(r.per_victim[0].quota_evictions, 0u);
  EXPECT_EQ(r.sft_evictions,
            r.per_victim[0].evictions + r.per_victim[1].evictions);
  EXPECT_GT(r.per_victim[0].decided_nice, 0u);  // legit flows still judged
}

TEST(VictimQuotaExperiment, ProvisionedWeightsFlowToEveryEngine) {
  // ExperimentConfig::sft_victim_weights (victim order, primary first)
  // reaches every mounted engine: after the run, each activated filter
  // reserves SFT slots 3:1 between the two victims instead of 1:1.
  ExperimentConfig cfg;
  cfg.seed = 11;
  cfg.total_flows = 50;
  cfg.tcp_fraction = 0.98;
  cfg.router_count = 8;
  cfg.extra_victims = 1;
  cfg.per_packet_spoofing = true;
  cfg.sft_victim_quota = 0.25;
  cfg.sft_victim_weights = {3.0, 1.0};
  cfg.mafic.sft_capacity = 16;
  cfg.end_time = 4.5;

  Experiment exp(cfg);
  const ExperimentResult r = exp.run();
  EXPECT_TRUE(r.metrics.triggered);
  ASSERT_EQ(r.per_victim.size(), 2u);
  ASSERT_EQ(exp.victim_addrs().size(), 2u);
  const util::Addr primary = exp.victim_addrs()[0];
  const util::Addr extra = exp.victim_addrs()[1];

  // pool = 2 x min(4, 16/2) = 8 slots; 3:1 split = 6 and 2 (the equal
  // split would be 4 and 4).
  std::size_t activated = 0;
  for (const core::ShardedMaficFilter* f : exp.sharded_filters()) {
    // never activated
    if (f->engine(0).tables().victim_classes() < 2) continue;
    ++activated;
    EXPECT_EQ(f->engine(0).tables().quota_slots_of(primary), 6u);
    EXPECT_EQ(f->engine(0).tables().quota_slots_of(extra), 2u);
  }
  EXPECT_GT(activated, 0u);
}

}  // namespace
}  // namespace mafic::scenario
