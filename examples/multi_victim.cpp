// Multi-victim defense: one ATR protecting two victims at once.
//
// Part 1 drives a bare FilterEngine (standalone runtime, no simulator)
// with one attacker host that floods victim A while behaving toward
// victim B. Flow keys hash the full 4-tuple including the destination, so
// the two flows occupy distinct table entries and resolve independently:
// the SAME source ends up in the PDT for A and in the NFT for B — the
// per-victim table partitioning the flow-label design buys.
//
// Part 2 runs the full scenario harness with an extra victim: flows and
// zombies split across both victims through the same ATRs, and the
// per-victim decision breakdown shows each victim judged on its own
// traffic.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_multi_victim

#include <cassert>
#include <cstdio>

#include "core/sharded_filter.hpp"
#include "core/standalone_runtime.hpp"
#include "scenario/experiment.hpp"

using namespace mafic;

static void part1_engine_partitioning() {
  std::printf("--- part 1: one engine, two victims, one source ---\n");

  core::MaficConfig cfg;
  cfg.default_rtt = 0.04;       // 0.08 s probation windows
  cfg.drop_probability = 1.0;   // deterministic admission for the demo
  cfg.probe_enabled = false;

  core::EngineRuntime rt(cfg, nullptr);
  core::FilterEngine& engine = rt.engine();

  const util::Addr victim_a = util::make_addr(172, 17, 0, 1);
  const util::Addr victim_b = util::make_addr(172, 17, 0, 2);
  const util::Addr source = util::make_addr(172, 16, 0, 9);
  engine.activate({victim_a, victim_b});

  sim::Packet to_a;
  to_a.label = {source, victim_a, 5000, 80};
  to_a.proto = sim::Protocol::kTcp;
  sim::Packet to_b = to_a;
  to_b.label.dst = victim_b;

  const std::uint64_t key_a = sim::hash_label(to_a.label);
  const std::uint64_t key_b = sim::hash_label(to_b.label);
  assert(key_a != key_b);  // dst is part of the flow identity

  // Both flows get admitted on first sight (Pd = 1)...
  engine.inspect(to_a);
  engine.inspect(to_b);
  assert(engine.tables().sft_size() == 2);

  // ...then the A flow keeps flooding through both half-windows while the
  // B flow goes quiet (a genuine sender reacting to the drop).
  for (int i = 1; i <= 40; ++i) {
    rt.advance_until(0.002 * i);
    engine.inspect(to_a);
  }
  rt.advance_until(0.5);  // decision timers fire

  std::printf("  flow -> A (flooding):  %s\n",
              core::to_string(engine.tables().in_pdt(key_a)
                                  ? core::TableKind::kPermanentDrop
                                  : core::TableKind::kNone));
  std::printf("  flow -> B (backed off): %s\n",
              core::to_string(engine.tables().in_nft(key_b)
                                  ? core::TableKind::kNice
                                  : core::TableKind::kNone));
  assert(engine.tables().in_pdt(key_a));
  assert(engine.tables().in_nft(key_b));

  const auto& per_victim = engine.victim_stats();
  assert(per_victim.at(victim_a).decided_malicious == 1);
  assert(per_victim.at(victim_a).decided_nice == 0);
  assert(per_victim.at(victim_b).decided_nice == 1);
  assert(per_victim.at(victim_b).decided_malicious == 0);
  std::printf("  same source, independent verdicts per victim — "
              "partitioned tables\n\n");
}

static void part2_scenario_breakdown() {
  std::printf("--- part 2: full scenario, 2 victims through shared ATRs "
              "---\n");

  scenario::ExperimentConfig cfg;
  cfg.seed = 11;
  cfg.total_flows = 24;
  cfg.router_count = 12;
  cfg.extra_victims = 1;
  cfg.end_time = 8.0;

  scenario::Experiment exp(cfg);
  const scenario::ExperimentResult r = exp.run();

  assert(r.per_victim.size() == 2);
  for (const auto& v : r.per_victim) {
    std::printf("  victim %-16s nice=%llu malicious=%llu screened=%llu\n",
                util::format_addr(v.victim).c_str(),
                static_cast<unsigned long long>(v.decided_nice),
                static_cast<unsigned long long>(v.decided_malicious),
                static_cast<unsigned long long>(v.screened_sources));
  }
  // Both victims' flow populations went through probation independently.
  assert(r.per_victim[0].decided_nice + r.per_victim[0].decided_malicious >
         0);
  assert(r.per_victim[1].decided_nice + r.per_victim[1].decided_malicious >
         0);
  // alpha covers defense drops at every ATR; beta and the bandwidth
  // series are measured on the primary victim's access link only.
  std::printf("  alpha=%.1f%% (all victims), beta=%.1f%% (primary victim's "
              "link)\n",
              r.metrics.alpha * 100.0, r.metrics.beta * 100.0);
}

int main() {
  part1_engine_partitioning();
  part2_scenario_breakdown();
  std::printf("\nmulti-victim defense OK\n");
  return 0;
}
