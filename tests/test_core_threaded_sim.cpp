// The speculative threaded sim-shard path: ShardedMaficFilter fans each
// burst span out to a ShardWorkerPool as per-shard sub-spans, workers
// journal every seam side effect, and the sim thread merges the journals
// deterministically in span order. The battery proves the new path earns
// the arrival-order invariant back through tests:
//   1. ShardWorkerPool mechanics — every task runs exactly once across
//      rounds, and destruction with a batch still in flight completes the
//      in-flight sub-spans before joining (the TSan job race-checks it).
//   2. ShardSeamJournal scripted unit tests — buffered schedule/cancel
//      literal replay, stale-handle rejection across slot reuse, fire-
//      path slot reclamation, and the empty-burst case.
//   3. A randomized property sweep — burst sizes 1–64, shard counts
//      1/2/4/8, worker counts 0/1/2/4 and multiple seeds: the threaded
//      runs must be bit-identical to shard_threads=0
//      (survivor uid stream, classification order, drop/admission/
//      eviction counters).
//   4. Journal-merge degenerate cases — bursts landing entirely on one
//      shard (every other sub-span empty), cold-only bursts, burst size
//      1, and the single-shard filter driven by many workers.
//   5. End-to-end Experiments differing only in shard_threads (0 vs
//      1/2/4, quotas off and on) — identical verdicts, timer order,
//      probe order, per-victim stats and events_processed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "core/journal_seams.hpp"
#include "core/shard_worker_pool.hpp"
#include "core/sharded_mafic_filter.hpp"
#include "core/standalone_runtime.hpp"
#include "scenario/experiment.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mafic::core {
namespace {

sim::FlowLabel label_for(std::uint32_t i, bool cold = false) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff),
          cold ? util::make_addr(172, 18, 0, 1)
               : util::make_addr(172, 17, 0, 1),
          std::uint16_t(1024 + i), 80};
}

// ---------------------------------------------------------------------------
// 1. ShardWorkerPool
// ---------------------------------------------------------------------------

TEST(ShardWorkerPool, EveryTaskRunsExactlyOnceAcrossRounds) {
  ShardWorkerPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + std::size_t(round % 9);
    std::vector<std::atomic<int>> hits(n);
    pool.submit([&](std::size_t i) { hits[i].fetch_add(1); }, n);
    pool.wait();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " task " << i;
    }
  }
  // Empty batches are a no-op.
  pool.submit([](std::size_t) { FAIL() << "task ran for n=0"; }, 0);
  pool.wait();
}

TEST(ShardWorkerPool, DestructionCompletesInFlightSubSpans) {
  // The destructor must finish a submitted batch (in-flight sub-spans
  // included) before joining — never drop or deadlock on it. Run under
  // the TSan CI job, this also race-checks the shutdown handoff.
  std::atomic<int> done{0};
  {
    ShardWorkerPool pool(4);
    pool.submit(
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          done.fetch_add(1);
        },
        8);
    // No wait(): the pool is torn down with tasks still in flight.
  }
  EXPECT_EQ(done.load(), 8);
}

// ---------------------------------------------------------------------------
// 2. ShardSeamJournal scripted unit tests
// ---------------------------------------------------------------------------

struct JournalFixture {
  ManualClock clock;
  WheelTimerService wheel{&clock};
  CountingProbeSink probes;
  ShardSeamJournal journal{&wheel, &probes};
};

TEST(ShardSeamJournal, BufferedScheduleCancelLiteralReplay) {
  JournalFixture fx;
  std::vector<int> fired;

  fx.journal.begin_burst();
  fx.journal.begin_packet(0);
  const sim::TimerId a =
      fx.journal.schedule_at(0.1, [&] { fired.push_back(1); });
  fx.journal.begin_packet(1);
  const sim::TimerId b =
      fx.journal.schedule_at(0.1, [&] { fired.push_back(2); });
  fx.journal.begin_packet(2);
  // Cancel a timer scheduled earlier in the same burst: revoked exactly
  // once, the second cancel is a stale no-op (serial wheel semantics).
  EXPECT_TRUE(fx.journal.cancel(a));
  EXPECT_FALSE(fx.journal.cancel(a));
  fx.journal.send_probe(label_for(7));
  fx.journal.end_burst();

  // Nothing reached the underlying seams while buffering.
  EXPECT_EQ(fx.wheel.wheel().size(), 0u);
  EXPECT_EQ(fx.probes.probes_sent(), 0u);

  // Literal replay in journal order: schedule a, schedule b, cancel a,
  // probe — afterwards only b is armed.
  const auto& ops = fx.journal.ops();
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].span, 0u);
  EXPECT_EQ(ops[1].span, 1u);
  EXPECT_EQ(ops[2].span, 2u);
  for (const auto& op : ops) {
    if (op.kind == ShardSeamJournal::OpKind::kProbe) {
      fx.journal.underlying_probes()->send_probe(op.flow);
    } else {
      fx.journal.apply_timer(op);
    }
  }
  fx.journal.clear_ops();

  EXPECT_EQ(fx.wheel.wheel().size(), 1u);
  EXPECT_EQ(fx.probes.probes_sent(), 1u);
  fx.wheel.advance_until(0.2);
  EXPECT_EQ(fired, std::vector<int>({2}));
  EXPECT_EQ(fx.journal.live_slots(), 0u);  // fire reclaimed b's slot

  // Handles of fired timers are stale, even after their slot is reused.
  EXPECT_FALSE(fx.journal.cancel(b));
  const sim::TimerId c = fx.journal.schedule_at(0.3, [] {});
  EXPECT_FALSE(fx.journal.cancel(a));
  EXPECT_FALSE(fx.journal.cancel(b));
  EXPECT_TRUE(fx.journal.cancel(c));
  EXPECT_EQ(fx.journal.live_slots(), 0u);
}

TEST(ShardSeamJournal, PassthroughOutsideBurstsMatchesWheelSemantics) {
  JournalFixture fx;
  std::vector<int> fired;

  // Outside a burst the journal is a transparent shim over the wheel.
  const sim::TimerId a =
      fx.journal.schedule_at(0.05, [&] { fired.push_back(1); });
  const sim::TimerId b =
      fx.journal.schedule_at(0.05, [&] { fired.push_back(2); });
  EXPECT_EQ(fx.wheel.wheel().size(), 2u);
  EXPECT_TRUE(fx.journal.reschedule(b, 0.2));
  fx.wheel.advance_until(0.1);
  EXPECT_EQ(fired, std::vector<int>({1}));
  EXPECT_FALSE(fx.journal.cancel(a));  // already fired
  EXPECT_TRUE(fx.journal.cancel(b));
  EXPECT_EQ(fx.journal.live_slots(), 0u);
  fx.journal.send_probe(label_for(3));
  EXPECT_EQ(fx.probes.probes_sent(), 1u);

  // An empty burst journals nothing.
  fx.journal.begin_burst();
  fx.journal.end_burst();
  EXPECT_TRUE(fx.journal.ops().empty());
}

// ---------------------------------------------------------------------------
// 3. + 4. Randomized property sweep and degenerate merge cases
// ---------------------------------------------------------------------------

/// A scripted traffic timeline: spans of (flow, cold?) ids delivered as
/// bursts at fixed times. Built once per seed so every run configuration
/// replays the identical workload.
struct SpanSpec {
  double time = 0.0;
  std::vector<std::pair<std::uint32_t, bool>> pkts;  ///< (flow, cold)
};

std::vector<SpanSpec> make_timeline(std::uint64_t seed,
                                    std::size_t max_span) {
  util::Rng rng(seed);
  // Flow arrival processes: mixed rates, a few cold (non-victim) flows.
  // 144 concurrent hot flows against small per-shard SFTs (see
  // run_scripted) keep capacity evictions — and thus journaled timer
  // cancels from the eviction hook — firing mid-burst.
  std::vector<std::pair<double, std::pair<std::uint32_t, bool>>> events;
  for (std::uint32_t f = 0; f < 168; ++f) {
    const bool cold = f % 7 == 3;
    double t = rng.uniform(0.01, 0.3);
    const double gap = rng.uniform(0.004, 0.08);
    while (t < 1.0) {
      events.push_back({t, {f, cold}});
      t += gap * rng.uniform(0.5, 1.5);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.first < b.second.first;
            });
  // Chunk consecutive arrivals into bursts of random span size.
  std::vector<SpanSpec> spans;
  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t n =
        std::min(events.size() - i, 1 + rng.index(max_span));
    SpanSpec s;
    s.time = events[i].first;
    for (std::size_t j = 0; j < n; ++j) {
      s.pkts.push_back(events[i + j].second);
    }
    spans.push_back(std::move(s));
    i += n;
  }
  return spans;
}

/// Everything observable from one scripted run; operator== is the
/// bit-identity check.
struct RunResult {
  std::vector<std::uint64_t> survivor_uids;  ///< forwarded, in order
  std::vector<std::pair<std::uint64_t, int>> classifications;  ///< order!
  FilterEngine::Stats stats{};
  FlowTables::Stats tables{};
  std::uint64_t threaded_bursts = 0;

  friend bool operator==(const RunResult& a, const RunResult& b) {
    return a.survivor_uids == b.survivor_uids &&
           a.classifications == b.classifications &&
           a.stats.offered == b.stats.offered &&
           a.stats.forwarded == b.stats.forwarded &&
           a.stats.dropped_probation == b.stats.dropped_probation &&
           a.stats.dropped_pdt == b.stats.dropped_pdt &&
           a.stats.decided_nice == b.stats.decided_nice &&
           a.stats.decided_malicious == b.stats.decided_malicious &&
           a.tables.sft_admissions == b.tables.sft_admissions &&
           a.tables.sft_evictions == b.tables.sft_evictions &&
           a.tables.moved_to_nft == b.tables.moved_to_nft &&
           a.tables.moved_to_pdt == b.tables.moved_to_pdt;
  }
};

RunResult run_scripted(const std::vector<SpanSpec>& timeline,
                       std::size_t num_shards, std::size_t threads,
                       std::size_t sft_capacity) {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::PacketFactory factory;

  MaficConfig cfg;
  cfg.default_rtt = 0.04;  // 0.08 s probation windows
  cfg.drop_probability = 0.9;
  cfg.probe_enabled = false;  // no wired topology in this fixture
  cfg.coin_seed = 0xfeedULL;
  cfg.sft_capacity = sft_capacity;  // small => capacity evictions fire
                                    // journaled timer cancels mid-burst

  std::unique_ptr<ShardWorkerPool> pool;
  if (threads > 0) pool = std::make_unique<ShardWorkerPool>(threads);
  ShardedMaficFilter filter(&sim, &factory, atr, num_shards, cfg, nullptr,
                            pool.get());
  class UidSink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr p) override { uids.push_back(p->uid); }
    std::vector<std::uint64_t> uids;
  } sink;
  filter.set_target(&sink);
  filter.activate({util::make_addr(172, 17, 0, 1)});

  RunResult run;
  filter.set_classification_callback(
      [&](const SftEntry& e, TableKind dest) {
        run.classifications.push_back({e.key, int(dest)});
      });

  for (const SpanSpec& span : timeline) {
    sim.schedule_at(span.time, [&, &span = span] {
      std::vector<sim::PacketPtr> pkts;
      pkts.reserve(span.pkts.size());
      for (const auto& [flow, cold] : span.pkts) {
        auto p = factory.make();
        p->label = label_for(flow, cold);
        p->proto = sim::Protocol::kTcp;
        p->size_bytes = 1000;
        pkts.push_back(std::move(p));
      }
      filter.recv_burst(pkts.data(), pkts.size());
    });
  }
  sim.run();

  run.survivor_uids = std::move(sink.uids);
  run.stats = filter.stats();
  run.tables = filter.tables_stats();
  run.threaded_bursts = filter.threaded_bursts();
  // The filter (and its journals) must drain before the pool dies; both
  // orders are exercised across the battery — here the pool outlives it.
  return run;
}

class ThreadedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreadedSweep, BitIdenticalToSerialAcrossShardAndWorkerCounts) {
  const std::vector<SpanSpec> timeline =
      make_timeline(GetParam(), /*max_span=*/64);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const RunResult serial = run_scripted(timeline, shards, /*threads=*/0,
                                          /*sft_capacity=*/8);
    ASSERT_GT(serial.stats.offered, 0u);
    ASSERT_GT(serial.tables.sft_admissions, 0u);
    EXPECT_GT(serial.tables.sft_evictions, 0u)
        << "fixture no longer exercises journaled eviction cancels";
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const RunResult threaded = run_scripted(timeline, shards, threads, 8);
      EXPECT_GT(threaded.threaded_bursts, 0u);
      EXPECT_TRUE(threaded == serial)
          << "shards=" << shards << " threads=" << threads
          << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedSweep,
                         ::testing::Values(1, 17, 20260729));

TEST(JournalMerge, BurstLandingEntirelyOnOneShardLeavesOthersEmpty) {
  // Pick flows that all live on shard 0 of a 4-shard filter: every other
  // worker sees an empty sub-span, and the merge must still replay shard
  // 0's journal in full span order.
  sim::Simulator probe_sim;
  sim::Network probe_net(&probe_sim);
  sim::Node* probe_atr = probe_net.add_router(util::make_addr(10, 0, 0, 9));
  sim::PacketFactory probe_factory;
  MaficConfig probe_cfg;
  ShardedMaficFilter probe_filter(&probe_sim, &probe_factory, probe_atr, 4,
                                  probe_cfg, nullptr);
  std::vector<std::uint32_t> same_shard;
  for (std::uint32_t f = 0; same_shard.size() < 24 && f < 4096; ++f) {
    sim::Packet p;
    p.label = label_for(f);
    if (probe_filter.sharded().shard_for(p) == 0) same_shard.push_back(f);
  }
  ASSERT_EQ(same_shard.size(), 24u);

  std::vector<SpanSpec> timeline;
  util::Rng rng(5);
  double t = 0.01;
  for (int burst = 0; burst < 40; ++burst) {
    SpanSpec s;
    s.time = t;
    const std::size_t n = 1 + rng.index(24);
    for (std::size_t j = 0; j < n; ++j) {
      s.pkts.push_back({same_shard[rng.index(same_shard.size())], false});
    }
    timeline.push_back(std::move(s));
    t += 0.01;
  }
  const RunResult serial =
      run_scripted(timeline, 4, 0, 16);
  const RunResult threaded =
      run_scripted(timeline, 4, 4, 16);
  ASSERT_GT(serial.stats.offered, 0u);
  EXPECT_TRUE(threaded == serial);
}

TEST(JournalMerge, DegenerateSpansSingleShardAndColdBursts) {
  // Burst size 1, a single-shard filter under many workers, and bursts
  // of cold (non-victim) packets that produce no journal ops at all.
  std::vector<SpanSpec> timeline;
  double t = 0.01;
  for (std::uint32_t f = 0; f < 30; ++f) {
    SpanSpec one;
    one.time = t;
    one.pkts.push_back({f, false});
    timeline.push_back(one);  // size-1 span
    t += 0.005;
  }
  SpanSpec cold;
  cold.time = t;
  for (std::uint32_t f = 0; f < 16; ++f) cold.pkts.push_back({f, true});
  timeline.push_back(cold);  // all-cold span: every sub-span empty

  for (const std::size_t shards : {1u, 4u}) {
    const RunResult serial =
        run_scripted(timeline, shards, 0, 64);
    const RunResult threaded =
        run_scripted(timeline, shards, 4, 64);
    ASSERT_GT(serial.stats.offered, 0u);
    EXPECT_TRUE(threaded == serial) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// 5. End-to-end Experiments: shard_threads=0 vs 1/2/4
// ---------------------------------------------------------------------------

void expect_identical(const scenario::ExperimentResult& a,
                      const scenario::ExperimentResult& b,
                      const char* what) {
  // The whole simulation stayed in lockstep: identical verdict streams,
  // timer order and probe order imply identical packet uid streams and
  // therefore an identical event count.
  EXPECT_EQ(a.events_processed, b.events_processed) << what;
  EXPECT_EQ(a.sft_admissions, b.sft_admissions) << what;
  EXPECT_EQ(a.sft_evictions, b.sft_evictions) << what;
  EXPECT_EQ(a.quota_evictions, b.quota_evictions) << what;
  EXPECT_EQ(a.moved_to_nft, b.moved_to_nft) << what;
  EXPECT_EQ(a.moved_to_pdt, b.moved_to_pdt) << what;
  EXPECT_EQ(a.screened_sources, b.screened_sources) << what;
  EXPECT_EQ(a.probes_issued, b.probes_issued) << what;
  ASSERT_EQ(a.per_victim.size(), b.per_victim.size()) << what;
  for (std::size_t i = 0; i < a.per_victim.size(); ++i) {
    EXPECT_EQ(a.per_victim[i].victim, b.per_victim[i].victim) << what;
    EXPECT_EQ(a.per_victim[i].decided_nice, b.per_victim[i].decided_nice)
        << what;
    EXPECT_EQ(a.per_victim[i].decided_malicious,
              b.per_victim[i].decided_malicious)
        << what;
    EXPECT_EQ(a.per_victim[i].screened_sources,
              b.per_victim[i].screened_sources)
        << what;
    EXPECT_EQ(a.per_victim[i].evictions, b.per_victim[i].evictions) << what;
    EXPECT_EQ(a.per_victim[i].quota_evictions,
              b.per_victim[i].quota_evictions)
        << what;
  }
  EXPECT_EQ(a.metrics.malicious_dropped, b.metrics.malicious_dropped)
      << what;
  EXPECT_EQ(a.metrics.legit_dropped, b.metrics.legit_dropped) << what;
  EXPECT_EQ(a.metrics.alpha, b.metrics.alpha) << what;
}

TEST(ThreadedExperiment, BitIdenticalResultsAcrossWorkerCounts) {
  scenario::ExperimentConfig base;
  base.seed = 7;
  base.total_flows = 24;
  base.router_count = 10;
  base.end_time = 6.0;
  base.link_burst_size = 8;
  base.num_shards = 4;

  const auto run = [&](std::size_t threads, std::uint64_t* bursts) {
    scenario::ExperimentConfig cfg = base;
    cfg.shard_threads = threads;
    scenario::Experiment exp(cfg);
    scenario::ExperimentResult r = exp.run();
    if (bursts != nullptr) {
      *bursts = 0;
      for (const auto* f : exp.sharded_filters()) {
        *bursts += f->threaded_bursts();
      }
    }
    return r;
  };

  const scenario::ExperimentResult serial = run(0, nullptr);
  ASSERT_GT(serial.sft_admissions, 0u);
  ASSERT_GT(serial.probes_issued, 0u);
  ASSERT_FALSE(std::isnan(serial.metrics.alpha));
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::uint64_t bursts = 0;
    const scenario::ExperimentResult threaded = run(threads, &bursts);
    EXPECT_GT(bursts, 0u) << "threaded path never engaged";
    expect_identical(serial, threaded,
                     threads == 1   ? "threads=1"
                     : threads == 2 ? "threads=2"
                                    : "threads=4");
  }
}

TEST(ThreadedExperiment, BitIdenticalWithPerVictimQuotas) {
  scenario::ExperimentConfig base;
  base.seed = 42;
  base.total_flows = 24;
  base.router_count = 10;
  base.end_time = 5.0;
  base.link_burst_size = 8;
  base.num_shards = 4;
  base.extra_victims = 1;
  base.sft_victim_quota = 0.25;

  const auto run = [&](std::size_t threads) {
    scenario::ExperimentConfig cfg = base;
    cfg.shard_threads = threads;
    scenario::Experiment exp(cfg);
    return exp.run();
  };
  const scenario::ExperimentResult serial = run(0);
  const scenario::ExperimentResult threaded = run(4);
  ASSERT_GT(serial.sft_admissions, 0u);
  expect_identical(serial, threaded, "quotas threads=4");
}

}  // namespace
}  // namespace mafic::core
