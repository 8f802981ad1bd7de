// Model-based randomized tests: the event queue against a reference
// implementation, end-to-end conservation checks on random topologies,
// and a sub-span split/merge fuzzer over the speculative threaded
// sharded datapath's partition/merge path.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "core/shard_worker_pool.hpp"
#include "core/sharded_mafic_filter.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topology/topology.hpp"
#include "transport/cbr.hpp"
#include "transport/udp.hpp"
#include "util/rng.hpp"

namespace mafic::sim {
namespace {

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  EventQueue q;
  // Reference: ordered multimap (time, id) of live events.
  std::multimap<std::pair<SimTime, EventId>, int> model;
  std::vector<EventId> live_ids;
  int next_tag = 0;
  std::vector<int> popped_real, popped_model;

  for (int step = 0; step < 5000; ++step) {
    const double action = rng.uniform01();
    if (action < 0.55 || q.empty()) {
      const SimTime t = rng.uniform(0.0, 100.0);
      const int tag = next_tag++;
      const EventId id = q.push(t, [] {});
      model.emplace(std::make_pair(t, id), tag);
      live_ids.push_back(id);
    } else if (action < 0.75 && !live_ids.empty()) {
      // Cancel a random (possibly stale) id.
      const std::size_t pick = rng.index(live_ids.size());
      const EventId id = live_ids[pick];
      const bool cancelled = q.cancel(id);
      // Mirror in the model.
      bool in_model = false;
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->first.second == id) {
          model.erase(it);
          in_model = true;
          break;
        }
      }
      EXPECT_EQ(cancelled, in_model);
      live_ids.erase(live_ids.begin() + long(pick));
    } else if (!q.empty()) {
      auto popped = q.pop();
      ASSERT_FALSE(model.empty());
      const auto expect = model.begin();
      EXPECT_DOUBLE_EQ(popped.time, expect->first.first);
      EXPECT_EQ(popped.id, expect->first.second);
      popped_real.push_back(int(popped.id));
      popped_model.push_back(int(expect->first.second));
      model.erase(expect);
      live_ids.erase(
          std::remove(live_ids.begin(), live_ids.end(), popped.id),
          live_ids.end());
    }
    ASSERT_EQ(q.size(), model.size());
  }
  EXPECT_EQ(popped_real, popped_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 99));

class ConservationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// On a random domain with random CBR flows, every emitted packet must be
// accounted for: delivered to an agent, dropped with a reason, or still
// queued/in flight when the run stops.
TEST_P(ConservationFuzz, PacketsAreConserved) {
  Simulator sim;
  Network net(&sim);
  util::Rng rng(GetParam());

  topology::DomainConfig dc;
  dc.router_count = 6 + rng.index(6);
  dc.victim_bandwidth_bps = 2e6;  // force queue drops
  dc.victim_queue_packets = 20;
  topology::Domain domain(&net, rng.split(), dc);
  domain.build_core();

  PacketFactory factory;
  std::vector<std::unique_ptr<transport::CbrSource>> sources;
  std::vector<std::unique_ptr<transport::UdpSink>> sinks;
  Node* victim = net.node(domain.victim_host());

  const int flows = 3 + int(rng.index(6));
  for (int i = 0; i < flows; ++i) {
    auto& access = domain.attach_host();
    transport::CbrSource::Config cc;
    cc.rate_bps = rng.uniform(200e3, 2e6);
    cc.packet_bytes = 500;
    auto src = std::make_unique<transport::CbrSource>(
        &sim, &factory, net.node(access.host), 5000, cc, rng.split());
    src->connect(domain.victim_addr(), std::uint16_t(2000 + i));
    auto sink = std::make_unique<transport::UdpSink>(
        &sim, &factory, victim, std::uint16_t(2000 + i));
    src->start();
    sources.push_back(std::move(src));
    sinks.push_back(std::move(sink));
  }
  net.build_routes();

  std::uint64_t dropped = 0;
  net.set_drop_handler(
      [&](const Packet&, DropReason, NodeId) { ++dropped; });

  sim.run_until(3.0);

  std::uint64_t sent = 0, received = 0;
  for (const auto& s : sources) sent += s->packets_sent();
  for (const auto& s : sinks) received += s->packets_received();

  std::uint64_t queued = 0;
  for (const auto& link : net.links()) {
    queued += link->queue().depth_packets();
    queued += link->transmitter().idle() ? 0 : 1;
  }
  // In-flight propagation events are bounded by links count; allow them
  // as slack alongside explicit queue occupancy.
  EXPECT_LE(received + dropped, sent);
  EXPECT_GE(received + dropped + queued + net.link_count(), sent);
  EXPECT_GT(received, 0u);
  EXPECT_GT(dropped, 0u);  // the 2 Mb/s victim link must have overflowed
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationFuzz,
                         ::testing::Values(11, 22, 33, 44));

class ShardSpanFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Sub-span split/merge fuzzer: random spans pushed through the threaded
// ShardedMaficFilter's partition -> per-shard fan-out -> deterministic
// merge must reconstruct the original arrival order exactly and never
// drop or duplicate a packet uid. With Pd = 0 nothing is ever admitted
// or dropped, so the forwarded stream IS the partition/merge round trip.
TEST_P(ShardSpanFuzz, PartitionMergeReconstructsArrivalOrder) {
  util::Rng rng(GetParam());
  const std::size_t shards = std::size_t{1} << rng.index(4);   // 1..8
  const std::size_t threads = 1 + rng.index(4);                // 1..4

  Simulator sim;
  Network net(&sim);
  Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  PacketFactory factory;

  core::MaficConfig cfg;
  cfg.drop_probability = 0.0;  // forward everything: pure order check
  cfg.probe_enabled = false;
  core::ShardWorkerPool pool(threads);
  core::ShardedMaficFilter filter(&sim, &factory, atr, shards, cfg,
                                  nullptr, &pool);
  class UidSink final : public Connector {
   public:
    void recv(PacketPtr p) override { uids.push_back(p->uid); }
    std::vector<std::uint64_t> uids;
  } sink;
  filter.set_target(&sink);
  filter.activate({util::make_addr(172, 17, 0, 1)});

  std::vector<std::uint64_t> sent;
  double t = 0.001;
  for (int burst = 0; burst < 200; ++burst) {
    const std::size_t n = 1 + rng.index(64);
    sim.schedule_at(t, [&, n] {
      std::vector<PacketPtr> span;
      for (std::size_t i = 0; i < n; ++i) {
        auto p = factory.make();
        const auto f = static_cast<std::uint32_t>(rng.index(512));
        // ~1/5 cold packets (non-victim destination) so the fuzz mixes
        // inspected and pass-through packets within one span.
        const bool cold = rng.index(5) == 0;
        p->label = {util::make_addr(172, 16, (f >> 8) & 0xff, f & 0xff),
                    cold ? util::make_addr(172, 18, 0, 1)
                         : util::make_addr(172, 17, 0, 1),
                    std::uint16_t(1024 + f), 80};
        p->proto = Protocol::kTcp;
        p->size_bytes = 500;
        sent.push_back(p->uid);
        span.push_back(std::move(p));
      }
      filter.recv_burst(span.data(), span.size());
    });
    t += 0.0005;
  }
  sim.run();

  ASSERT_GT(filter.threaded_bursts(), 0u);
  // Exact reconstruction: same uids, same order, nothing lost or doubled.
  EXPECT_EQ(sink.uids, sent);
  std::unordered_set<std::uint64_t> unique(sink.uids.begin(),
                                           sink.uids.end());
  EXPECT_EQ(unique.size(), sink.uids.size());
}

// The same round trip with Pd = 0.9: drops thin the stream, but the
// survivors plus the dropped uids must partition the input — order
// preserved among survivors, no uid lost, none seen twice.
TEST_P(ShardSpanFuzz, DropsPartitionTheStreamWithoutLossOrDuplication) {
  util::Rng rng(GetParam() * 977 + 1);
  const std::size_t shards = std::size_t{1} << rng.index(4);

  Simulator sim;
  Network net(&sim);
  Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  PacketFactory factory;

  core::MaficConfig cfg;
  cfg.drop_probability = 0.9;
  cfg.coin_seed = GetParam();
  cfg.probe_enabled = false;
  cfg.sft_capacity = 8;  // force mid-burst capacity evictions too
  core::ShardWorkerPool pool(4);
  core::ShardedMaficFilter filter(&sim, &factory, atr, shards, cfg,
                                  nullptr, &pool);
  class UidSink final : public Connector {
   public:
    void recv(PacketPtr p) override { uids.push_back(p->uid); }
    std::vector<std::uint64_t> uids;
  } sink;
  filter.set_target(&sink);
  std::vector<std::uint64_t> dropped;
  filter.set_drop_handler(
      [&](const Packet& p, DropReason, NodeId) { dropped.push_back(p.uid); });
  filter.activate({util::make_addr(172, 17, 0, 1)});

  std::vector<std::uint64_t> sent;
  double t = 0.001;
  for (int burst = 0; burst < 150; ++burst) {
    const std::size_t n = 1 + rng.index(64);
    sim.schedule_at(t, [&, n] {
      std::vector<PacketPtr> span;
      for (std::size_t i = 0; i < n; ++i) {
        auto p = factory.make();
        const auto f = static_cast<std::uint32_t>(rng.index(96));
        p->label = {util::make_addr(172, 16, 0, std::uint8_t(f)),
                    util::make_addr(172, 17, 0, 1),
                    std::uint16_t(1024 + f), 80};
        p->proto = Protocol::kTcp;
        p->size_bytes = 500;
        sent.push_back(p->uid);
        span.push_back(std::move(p));
      }
      filter.recv_burst(span.data(), span.size());
    });
    t += 0.001;
  }
  sim.run();

  EXPECT_GT(sink.uids.size(), 0u);
  EXPECT_GT(dropped.size(), 0u);
  EXPECT_EQ(sink.uids.size() + dropped.size(), sent.size());
  // Survivors keep arrival order (a subsequence of the input)...
  std::size_t pos = 0;
  for (const std::uint64_t uid : sink.uids) {
    while (pos < sent.size() && sent[pos] != uid) ++pos;
    ASSERT_LT(pos, sent.size()) << "survivor out of order or unknown";
    ++pos;
  }
  // ...and no uid appears on both sides or twice on either.
  std::unordered_set<std::uint64_t> seen;
  for (const std::uint64_t uid : sink.uids) {
    EXPECT_TRUE(seen.insert(uid).second);
  }
  for (const std::uint64_t uid : dropped) {
    EXPECT_TRUE(seen.insert(uid).second);
  }
  EXPECT_EQ(seen.size(), sent.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSpanFuzz,
                         ::testing::Values(7, 19, 101, 20260729));

}  // namespace
}  // namespace mafic::sim
