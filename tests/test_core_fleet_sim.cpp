// Fleet-wide tick batching: same-instant burst deliveries across many
// ShardedMaficFilters coalesce into ONE ShardWorkerPool submission per
// simulated tick (FleetBurstScheduler installed as the simulator's
// TickDrain), then replay their seam journals in arrival order. The
// battery proves the batched path changes nothing observable:
//   1. ShardWorkerPool heterogeneous task lists — every (ctx, arg) task
//      runs exactly once, interleaved with uniform TaskFn batches, and
//      the occupancy counters (submissions, tasks, max_tasks, busy/wall)
//      account for exactly the work submitted.
//   2. Simulator TickDrain mechanics — the drain flushes before any
//      non-batchable event, before wheel timers, before the clock
//      advances, and at run()/run_until() exit; only runs of
//      consecutive same-time batchable events coalesce.
//   3. A randomized multi-filter sweep — filters x shards x workers,
//      spans landing on a shared time grid so deliveries collide: the
//      fleet-batched runs must be bit-identical to plain serial
//      (per-filter survivor uid streams, classification order, stats),
//      with multi-filter drains actually observed.
//   4. End-to-end Experiments: fleet_tick_batch=true vs shard_threads=0
//      — identical verdicts, timers, probes, per-victim stats — plus
//      occupancy surfaced through ExperimentResult.
// Run under the TSan CI job, 1. and 3. also race-check the shared
// submission window.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/fleet_burst_scheduler.hpp"
#include "core/shard_worker_pool.hpp"
#include "core/sharded_mafic_filter.hpp"
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
// 1. ShardWorkerPool heterogeneous batches + occupancy
// ---------------------------------------------------------------------------

TEST(FleetWorkerPool, HeterogeneousTasksRunExactlyOnceWithTheirArgs) {
  ShardWorkerPool pool(3);
  struct Cell {
    std::atomic<int> hits{0};
    std::size_t want_arg = 0;
  };
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + std::size_t(round % 11);
    std::vector<Cell> cells(n);
    std::vector<ShardWorkerPool::Task> tasks(n);
    for (std::size_t i = 0; i < n; ++i) {
      cells[i].want_arg = 100 + i;
      tasks[i].run = [](void* ctx, std::size_t arg) {
        auto* cell = static_cast<Cell*>(ctx);
        EXPECT_EQ(arg, cell->want_arg);
        cell->hits.fetch_add(1);
      };
      tasks[i].ctx = &cells[i];
      tasks[i].arg = 100 + i;
    }
    pool.submit(tasks.data(), tasks.size());
    pool.wait();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(cells[i].hits.load(), 1) << "round " << round << " task "
                                         << i;
    }
    // Interleave a uniform batch: both submit flavors share the window.
    std::atomic<int> uniform{0};
    pool.submit([&](std::size_t) { uniform.fetch_add(1); }, 4);
    pool.wait();
    EXPECT_EQ(uniform.load(), 4);
  }
}

TEST(FleetWorkerPool, OccupancyCountsExactlyTheWorkSubmitted) {
  ShardWorkerPool pool(2);
  EXPECT_EQ(pool.occupancy().submissions, 0u);
  EXPECT_EQ(pool.occupancy().tasks, 0u);
  EXPECT_EQ(pool.occupancy().tasks_per_submission(), 0.0);
  EXPECT_EQ(pool.occupancy().busy_fraction(2), 0.0);

  // 3 + 7 + 1 tasks over three batches; an empty submit is not counted.
  const std::size_t batches[] = {3, 7, 1};
  for (const std::size_t n : batches) {
    std::vector<ShardWorkerPool::Task> tasks(n);
    for (auto& t : tasks) {
      t.run = [](void*, std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      };
    }
    pool.submit(tasks.data(), tasks.size());
    pool.wait();
  }
  const ShardWorkerPool::Task* none = nullptr;
  pool.submit(none, 0);
  pool.wait();

  const ShardWorkerPool::Occupancy occ = pool.occupancy();
  EXPECT_EQ(occ.submissions, 3u);
  EXPECT_EQ(occ.tasks, 11u);
  EXPECT_EQ(occ.max_tasks, 7u);
  EXPECT_NEAR(occ.tasks_per_submission(), 11.0 / 3.0, 1e-12);
  // Each task slept ~200us, so both clocks saw real time, and a batch
  // can never be busier than (helping caller + workers) x its window.
  EXPECT_GT(occ.busy_ns, 0u);
  EXPECT_GT(occ.wall_ns, 0u);
  EXPECT_LE(occ.busy_ns, occ.wall_ns * (pool.worker_count() + 1));
  EXPECT_GT(occ.busy_fraction(pool.worker_count()), 0.0);
  EXPECT_LE(occ.busy_fraction(pool.worker_count()), 1.0);
}

// ---------------------------------------------------------------------------
// 2. Simulator TickDrain mechanics
// ---------------------------------------------------------------------------

/// Records the order of deferred flushes relative to scripted events.
struct RecordingDrain final : sim::TickDrain {
  std::vector<int>* log = nullptr;
  int deferred = 0;
  bool pending() const noexcept override { return deferred > 0; }
  void drain() override {
    for (; deferred > 0; --deferred) log->push_back(-1);  // -1 = flush
  }
};

TEST(TickDrain, FlushesBeforeForeignEventsTimersAndClockAdvance) {
  sim::Simulator sim;
  std::vector<int> log;
  RecordingDrain drain;
  drain.log = &log;
  sim.set_tick_drain(&drain);

  const auto batchable = [&](double t, int id) {
    sim.schedule_batchable_at(t, [&, id] {
      log.push_back(id);
      ++drain.deferred;
    });
  };
  // t=1: three batchable events then a plain one — the two leading
  // deferrals coalesce, flush before the plain event... but the third
  // batchable event comes AFTER the plain one in insertion order, so it
  // must not coalesce with the first two.
  batchable(1.0, 1);
  batchable(1.0, 2);
  sim.schedule_at(1.0, [&] { log.push_back(10); });
  batchable(1.0, 3);
  // t=2: a batchable event with a same-time wheel timer pending — the
  // deferral flushes before the timer fires (queue events win ties, but
  // the drain must not survive into the timer).
  batchable(2.0, 4);
  sim.schedule_timer_at(2.0, [&] { log.push_back(20); });
  // t=3: a lone batchable event, then the clock advances to t=4 — flush
  // must happen before the t=4 event observes the world.
  batchable(3.0, 5);
  sim.schedule_at(4.0, [&] { log.push_back(30); });
  // t=5: trailing batchable events; run() must flush at exit.
  batchable(5.0, 6);
  batchable(5.0, 7);

  sim.run();
  const std::vector<int> want = {1, 2,  -1, -1, 10, 3,  -1, 4, -1,
                                 20, 5, -1, 30, 6,  7,  -1, -1};
  EXPECT_EQ(log, want);
}

TEST(TickDrain, RunUntilFlushesDeferredWorkAtTheHorizon) {
  sim::Simulator sim;
  std::vector<int> log;
  RecordingDrain drain;
  drain.log = &log;
  sim.set_tick_drain(&drain);
  sim.schedule_batchable_at(1.0, [&] {
    log.push_back(1);
    ++drain.deferred;
  });
  sim.run_until(2.0);
  EXPECT_EQ(log, (std::vector<int>{1, -1}));
  EXPECT_EQ(sim.now(), 2.0);
}

// ---------------------------------------------------------------------------
// 3. Randomized multi-filter fleet sweep
// ---------------------------------------------------------------------------

/// One filter's scripted spans: (time-grid slot, packets). Slots collide
/// across filters by construction, so fleet runs exercise multi-filter
/// drains.
struct SpanSpec {
  double time = 0.0;
  std::vector<std::pair<std::uint32_t, bool>> pkts;  ///< (flow, cold)
};

std::vector<std::vector<SpanSpec>> make_fleet_timeline(
    std::uint64_t seed, std::size_t filters, std::size_t max_span) {
  util::Rng rng(seed);
  std::vector<std::vector<SpanSpec>> all(filters);
  for (std::size_t f = 0; f < filters; ++f) {
    // Spans land on a shared 5 ms grid; ~60% of slots are occupied per
    // filter, so most ticks hit several filters at once. Flow ids are
    // disjoint per filter (distinct source /16) purely for readability —
    // filters share no state either way.
    for (std::uint32_t slot = 2; slot < 160; ++slot) {
      if (rng.uniform(0.0, 1.0) > 0.6) continue;
      SpanSpec s;
      s.time = 0.005 * slot;
      const std::size_t n = 1 + rng.index(max_span);
      for (std::size_t j = 0; j < n; ++j) {
        const auto flow =
            static_cast<std::uint32_t>(f * 512 + rng.index(40));
        s.pkts.push_back({flow, rng.index(9) == 0});
      }
      all[f].push_back(std::move(s));
    }
  }
  return all;
}

/// Everything observable from one scripted fleet run, per filter.
struct FleetRunResult {
  std::vector<std::vector<std::uint64_t>> survivor_uids;
  std::vector<std::vector<std::pair<std::uint64_t, int>>> classifications;
  std::vector<std::uint64_t> offered, forwarded, admissions, evictions;
  std::uint64_t drains = 0, coalesced = 0, spans = 0;
  ShardWorkerPool::Occupancy occupancy{};

  friend bool operator==(const FleetRunResult& a, const FleetRunResult& b) {
    // Deliberately excludes the drain/occupancy diagnostics — those
    // differ across modes by design.
    return a.survivor_uids == b.survivor_uids &&
           a.classifications == b.classifications &&
           a.offered == b.offered && a.forwarded == b.forwarded &&
           a.admissions == b.admissions && a.evictions == b.evictions;
  }
};

FleetRunResult run_fleet_scripted(
    const std::vector<std::vector<SpanSpec>>& timelines,
    std::size_t num_shards, std::size_t threads, bool fleet) {
  const std::size_t nf = timelines.size();
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::PacketFactory factory;

  std::unique_ptr<ShardWorkerPool> pool;
  std::unique_ptr<FleetBurstScheduler> sched;
  if (threads > 0) {
    pool = std::make_unique<ShardWorkerPool>(threads);
    if (fleet) {
      sched = std::make_unique<FleetBurstScheduler>(pool.get());
      sim.set_tick_drain(sched.get());
    }
  }

  class UidSink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr p) override { uids.push_back(p->uid); }
    std::vector<std::uint64_t> uids;
  };
  std::vector<UidSink> sinks(nf);
  std::vector<std::unique_ptr<ShardedMaficFilter>> filters;
  FleetRunResult run;
  run.classifications.resize(nf);

  MaficConfig cfg;
  cfg.default_rtt = 0.04;
  cfg.drop_probability = 0.9;
  cfg.probe_enabled = false;  // no wired topology in this fixture
  cfg.coin_seed = 0xfeedULL;
  cfg.sft_capacity = 8;  // small => capacity evictions mid-burst

  for (std::size_t f = 0; f < nf; ++f) {
    sim::Node* atr = net.add_router(
        util::make_addr(10, 0, std::uint8_t(f + 1), 1));
    filters.push_back(std::make_unique<ShardedMaficFilter>(
        &sim, &factory, atr, num_shards, cfg, nullptr, pool.get()));
    ShardedMaficFilter* filter = filters.back().get();
    if (fleet && threads > 0) filter->set_fleet(sched.get());
    filter->set_target(&sinks[f]);
    filter->activate({util::make_addr(172, 17, 0, 1)});
    auto* cls = &run.classifications[f];
    filter->set_classification_callback(
        [cls](const SftEntry& e, TableKind dest) {
          cls->push_back({e.key, int(dest)});
        });
    for (const SpanSpec& span : timelines[f]) {
      const auto deliver = [&factory, filter, &span] {
        std::vector<sim::PacketPtr> pkts;
        pkts.reserve(span.pkts.size());
        for (const auto& [flow, cold] : span.pkts) {
          auto p = factory.make();
          p->label = label_for(flow, cold);
          p->proto = sim::Protocol::kTcp;
          p->size_bytes = 1000;
          pkts.push_back(std::move(p));
        }
        filter->recv_burst(pkts.data(), pkts.size());
      };
      // Fleet deliveries are batchable (the LinkTransmitter tags them);
      // the serial comparator uses plain events.
      if (fleet) {
        sim.schedule_batchable_at(span.time, deliver);
      } else {
        sim.schedule_at(span.time, deliver);
      }
    }
  }
  sim.run();

  for (std::size_t f = 0; f < nf; ++f) {
    run.survivor_uids.push_back(std::move(sinks[f].uids));
    run.offered.push_back(filters[f]->stats().offered);
    run.forwarded.push_back(filters[f]->stats().forwarded);
    run.admissions.push_back(filters[f]->tables_stats().sft_admissions);
    run.evictions.push_back(filters[f]->tables_stats().sft_evictions);
  }
  if (sched != nullptr) {
    run.drains = sched->drains();
    run.coalesced = sched->coalesced_drains();
    run.spans = sched->spans_drained();
  }
  if (pool != nullptr) run.occupancy = pool->occupancy();
  return run;
}

class FleetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetSweep, BitIdenticalToSerialAcrossFiltersShardsAndWorkers) {
  for (const std::size_t filters : {2u, 5u}) {
    const auto timelines =
        make_fleet_timeline(GetParam(), filters, /*max_span=*/24);
    for (const std::size_t shards : {1u, 4u}) {
      const FleetRunResult serial =
          run_fleet_scripted(timelines, shards, /*threads=*/0,
                             /*fleet=*/false);
      std::uint64_t total_offered = 0;
      for (const auto o : serial.offered) total_offered += o;
      ASSERT_GT(total_offered, 0u);
      for (const std::size_t threads : {1u, 2u, 4u}) {
        const FleetRunResult fleet =
            run_fleet_scripted(timelines, shards, threads, /*fleet=*/true);
        EXPECT_TRUE(fleet == serial)
            << "filters=" << filters << " shards=" << shards
            << " threads=" << threads << " seed=" << GetParam();
        EXPECT_GT(fleet.drains, 0u);
        EXPECT_GT(fleet.coalesced, 0u)
            << "time grid never collided — the fixture lost its point";
        // At most one submission per drain (all-cold ticks skip it).
        EXPECT_LE(fleet.occupancy.submissions, fleet.drains);
        EXPECT_GT(fleet.occupancy.submissions, 0u);
        // Spans drained = one per (filter, tick) with work held.
        EXPECT_GE(fleet.spans, fleet.drains);
        // Tasks never exceed filters x shards per submission.
        EXPECT_LE(fleet.occupancy.max_tasks, filters * shards);
        EXPECT_GE(fleet.occupancy.tasks_per_submission(), 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetSweep,
                         ::testing::Values(3, 29, 20260809));

TEST(FleetSweep, FleetEqualsPerFilterThreadedPath) {
  // Transitivity double-check: the fleet path must also match PR 5's
  // per-filter speculative path (both claim serial identity).
  const auto timelines = make_fleet_timeline(77, 3, 16);
  const FleetRunResult per_filter =
      run_fleet_scripted(timelines, 4, 4, /*fleet=*/false);
  const FleetRunResult fleet =
      run_fleet_scripted(timelines, 4, 4, /*fleet=*/true);
  EXPECT_TRUE(fleet == per_filter);
}

// ---------------------------------------------------------------------------
// 4. End-to-end Experiments: fleet_tick_batch vs serial
// ---------------------------------------------------------------------------

void expect_identical(const scenario::ExperimentResult& a,
                      const scenario::ExperimentResult& b,
                      const char* what) {
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
    EXPECT_EQ(a.per_victim[i].decided_nice, b.per_victim[i].decided_nice)
        << what;
    EXPECT_EQ(a.per_victim[i].decided_malicious,
              b.per_victim[i].decided_malicious)
        << what;
    EXPECT_EQ(a.per_victim[i].evictions, b.per_victim[i].evictions) << what;
  }
  EXPECT_EQ(a.metrics.malicious_dropped, b.metrics.malicious_dropped)
      << what;
  EXPECT_EQ(a.metrics.legit_dropped, b.metrics.legit_dropped) << what;
  EXPECT_EQ(a.metrics.alpha, b.metrics.alpha) << what;
}

TEST(FleetExperiment, BitIdenticalResultsAndOccupancySurfaced) {
  scenario::ExperimentConfig base;
  base.seed = 11;
  base.total_flows = 24;
  base.router_count = 10;
  base.end_time = 6.0;
  base.link_burst_size = 8;
  base.num_shards = 4;

  const auto run = [&](std::size_t threads, bool fleet) {
    scenario::ExperimentConfig cfg = base;
    cfg.shard_threads = threads;
    cfg.fleet_tick_batch = fleet;
    scenario::Experiment exp(cfg);
    return exp.run();
  };

  const scenario::ExperimentResult serial = run(0, false);
  ASSERT_GT(serial.sft_admissions, 0u);
  ASSERT_GT(serial.probes_issued, 0u);
  ASSERT_FALSE(std::isnan(serial.metrics.alpha));
  EXPECT_EQ(serial.fleet_drains, 0u);
  EXPECT_EQ(serial.pool_occupancy.submissions, 0u);

  for (const std::size_t threads : {1u, 4u}) {
    const scenario::ExperimentResult fleet = run(threads, true);
    expect_identical(serial, fleet,
                     threads == 1 ? "fleet threads=1" : "fleet threads=4");
    EXPECT_GT(fleet.fleet_drains, 0u);
    EXPECT_GT(fleet.fleet_spans, 0u);
    EXPECT_EQ(fleet.pool_workers, threads);
    // Pre-activation ticks hold only cold spans and drain without
    // submitting, so submissions <= drains.
    EXPECT_LE(fleet.pool_occupancy.submissions, fleet.fleet_drains);
    EXPECT_GT(fleet.pool_occupancy.tasks, 0u);
    EXPECT_GT(fleet.pool_occupancy.busy_ns, 0u);
  }

  // Fleet batching also matches the per-filter threaded path.
  const scenario::ExperimentResult per_filter = run(4, false);
  expect_identical(serial, per_filter, "per-filter threads=4");
  EXPECT_EQ(per_filter.fleet_drains, 0u);
  EXPECT_GT(per_filter.pool_occupancy.submissions, 0u);
}

TEST(FleetExperiment, BitIdenticalWithQuotasAndExtraVictims) {
  scenario::ExperimentConfig base;
  base.seed = 42;
  base.total_flows = 24;
  base.router_count = 10;
  base.end_time = 5.0;
  base.link_burst_size = 8;
  base.num_shards = 4;
  base.extra_victims = 1;
  base.sft_victim_quota = 0.25;

  const auto run = [&](std::size_t threads, bool fleet) {
    scenario::ExperimentConfig cfg = base;
    cfg.shard_threads = threads;
    cfg.fleet_tick_batch = fleet;
    scenario::Experiment exp(cfg);
    return exp.run();
  };
  const scenario::ExperimentResult serial = run(0, false);
  const scenario::ExperimentResult fleet = run(4, true);
  ASSERT_GT(serial.sft_admissions, 0u);
  expect_identical(serial, fleet, "fleet quotas threads=4");
}

}  // namespace
}  // namespace mafic::core
