// Fixed-seed regression pin for the sim adapter's classification
// decisions (one-shard ShardedMaficFilter, the head-mounted datapath).
//
// The flow store and probation timers were rebuilt (flat open-addressing
// table + hierarchical timer wheel) on the premise that the *decisions* the
// filter makes are bit-identical to the original map-based implementation.
// This test drives the filter with a fully scripted packet schedule and a
// fixed Pd coin seed and compares every probation outcome — flow, destination
// table, and both half-window arrival counts — against goldens recorded
// from the pre-refactor implementation.
//
// Regenerate goldens (only if the *algorithm* legitimately changes):
//   MAFIC_PRINT_GOLDEN=1 ./test_core_classification_regression

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/sharded_mafic_filter.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {
namespace {

struct Outcome {
  std::uint32_t flow;
  TableKind dest;
  std::uint32_t baseline;
  std::uint32_t probe;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

sim::FlowLabel label_for(std::uint32_t i) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff),
          util::make_addr(172, 17, 0, 1), std::uint16_t(1024 + i), 80};
}

/// Scripted arrivals: 48 flows send at fixed times for 1.2 s. Flows are
/// striped across four behaviors so all decision branches are exercised:
///   i % 4 == 0  steady fast (no rate decrease => PDT)
///   i % 4 == 1  halves its rate at t=0.05, mid-probation (decrease => NFT)
///   i % 4 == 2  slow trickle (too thin to judge => NFT benefit of doubt)
///   i % 4 == 3  stops entirely at t=0.055 (decrease => NFT)
std::vector<Outcome> run_scripted() {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::PacketFactory factory;

  MaficConfig cfg;
  cfg.default_rtt = 0.04;  // 0.08 s probation window
  cfg.drop_probability = 0.9;
  cfg.coin_seed = 42;

  ShardedMaficFilter filter(&sim, &factory, atr, 1, cfg, nullptr);

  class Sink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr) override {}
  } sink;
  filter.set_target(&sink);

  const util::Addr victim = util::make_addr(172, 17, 0, 1);
  filter.activate({victim});

  std::vector<Outcome> outcomes;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < 48; ++i) {
    keys.push_back(sim::hash_label(label_for(i)));
  }
  filter.set_classification_callback(
      [&](const SftEntry& e, TableKind dest) {
        std::uint32_t flow = 0xffffffffu;
        for (std::uint32_t i = 0; i < keys.size(); ++i) {
          if (keys[i] == e.key) flow = i;
        }
        outcomes.push_back(
            Outcome{flow, dest, e.baseline_count, e.probe_count});
      });

  const auto send_at = [&](double t, std::uint32_t flow) {
    sim.schedule_at(t, [&filter, &factory, flow] {
      auto p = factory.make();
      p->label = label_for(flow);
      p->proto = sim::Protocol::kTcp;
      p->size_bytes = 1000;
      filter.recv(std::move(p));
    });
  };

  for (std::uint32_t i = 0; i < 48; ++i) {
    // Per-flow phase offset; prime-ish steps avoid synchronized ties.
    const double phase = 1e-4 * double(i);
    switch (i % 4) {
      case 0:  // steady fast: 4 ms spacing throughout
        for (double t = 0.01 + phase; t < 0.6; t += 0.004) send_at(t, i);
        break;
      case 1:  // halves its rate mid-probation
        for (double t = 0.01 + phase; t < 0.05; t += 0.004) send_at(t, i);
        for (double t = 0.05 + phase; t < 0.6; t += 0.008) send_at(t, i);
        break;
      case 2:  // trickle: 90 ms spacing, thinner than min_baseline_packets
        for (double t = 0.02 + phase; t < 0.6; t += 0.09) send_at(t, i);
        break;
      case 3:  // stops mid-probation
        for (double t = 0.01 + phase; t < 0.055; t += 0.004) send_at(t, i);
        break;
    }
  }

  sim.run();
  return outcomes;
}

constexpr std::uint32_t kNft = 1;  // compact golden encoding
constexpr std::uint32_t kPdt = 2;

struct GoldenRow {
  std::uint32_t flow, dest, baseline, probe;
};

// Recorded from the pre-refactor std::unordered_map implementation
// (commit 96a7caa) with MAFIC_PRINT_GOLDEN=1, under the per-engine RNG
// stream coin that implementation drew; the stateless Pd coin at
// coin_seed 42 reproduces every row.
constexpr GoldenRow kGolden[] = {
    {0, kPdt, 9, 10},  {1, kNft, 9, 5},   {3, kNft, 9, 2},
    {7, kNft, 9, 2},   {8, kPdt, 9, 10},  {9, kNft, 9, 5},
    {11, kNft, 9, 1},  {12, kPdt, 9, 10}, {13, kNft, 9, 5},
    {15, kNft, 9, 1},  {16, kPdt, 9, 10}, {17, kNft, 9, 5},
    {19, kNft, 9, 1},  {20, kPdt, 9, 10}, {21, kNft, 9, 5},
    {23, kNft, 9, 1},  {24, kPdt, 9, 10}, {25, kNft, 9, 5},
    {27, kNft, 9, 1},  {28, kPdt, 9, 10}, {29, kNft, 9, 5},
    {31, kNft, 9, 1},  {32, kPdt, 9, 10}, {33, kNft, 9, 5},
    {35, kNft, 9, 1},  {36, kPdt, 9, 10}, {37, kNft, 9, 5},
    {39, kNft, 9, 1},  {40, kPdt, 9, 10}, {43, kNft, 9, 1},
    {4, kPdt, 9, 10},  {44, kPdt, 9, 10}, {5, kNft, 9, 5},
    {47, kNft, 9, 1},  {41, kNft, 8, 5},  {45, kNft, 8, 5},
    {2, kNft, 0, 0},   {6, kNft, 0, 0},   {10, kNft, 0, 0},
    {18, kNft, 0, 0},  {22, kNft, 0, 0},  {26, kNft, 0, 0},
    {30, kNft, 0, 0},  {34, kNft, 0, 0},  {38, kNft, 0, 0},
    {42, kNft, 0, 0},  {46, kNft, 0, 0},  {14, kNft, 0, 0},
};

TEST(ClassificationRegression, MatchesMapBasedImplementation) {
  std::vector<Outcome> outcomes = run_scripted();

  if (std::getenv("MAFIC_PRINT_GOLDEN") != nullptr) {
    for (const auto& o : outcomes) {
      std::printf("    {%u, %s, %u, %u},\n", o.flow,
                  o.dest == TableKind::kNice ? "kNft" : "kPdt", o.baseline,
                  o.probe);
    }
    std::fflush(stdout);
    GTEST_SKIP() << "golden print mode";
  }

  // Compared per flow: what each flow's decision is — destination table
  // and the exact half-window counts it was judged on — must be
  // byte-identical to the map-based implementation. The *relative order*
  // of decisions across different flows is not pinned: decision timers on
  // the wheel fire on tick boundaries, so independent flows' resolutions
  // may interleave differently than the exact-time heap events did.
  std::vector<GoldenRow> want(std::begin(kGolden), std::end(kGolden));
  std::sort(want.begin(), want.end(),
            [](const GoldenRow& a, const GoldenRow& b) {
              return a.flow < b.flow;
            });
  std::sort(outcomes.begin(), outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.flow < b.flow;
            });

  ASSERT_EQ(outcomes.size(), want.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto dest =
        want[i].dest == kNft ? TableKind::kNice : TableKind::kPermanentDrop;
    EXPECT_EQ(outcomes[i].flow, want[i].flow) << "row " << i;
    EXPECT_EQ(outcomes[i].dest, dest) << "flow " << want[i].flow;
    EXPECT_EQ(outcomes[i].baseline, want[i].baseline)
        << "flow " << want[i].flow;
    EXPECT_EQ(outcomes[i].probe, want[i].probe) << "flow " << want[i].flow;
  }
}

/// Every scripted flow resolves exactly once: NFT and PDT membership are
/// permanent with revalidation off, so no flow re-enters probation.
TEST(ClassificationRegression, EachFlowDecidedOnce) {
  std::vector<Outcome> outcomes = run_scripted();
  std::vector<int> seen(48, 0);
  for (const auto& o : outcomes) {
    ASSERT_LT(o.flow, 48u);
    ++seen[o.flow];
  }
  for (std::uint32_t i = 0; i < 48; ++i) {
    EXPECT_EQ(seen[i], 1) << "flow " << i;
  }
}

}  // namespace
}  // namespace mafic::core
