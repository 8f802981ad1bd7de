// Ablation A3: MAFIC datapath cost — per-packet decision latency of the
// filter against table population, flow-label hashing and table lookups
// in isolation, plus the two timer substrates (heap event queue vs
// hierarchical wheel) under probation-style schedule/cancel churn.
//
// Results also append to BENCH_flow_store.json for cross-PR tracking.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "core/flow_tables.hpp"
#include "core/sharded_mafic_filter.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"

namespace {

using namespace mafic;

sim::FlowLabel label_for(std::uint64_t i) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff),
          util::make_addr(172, 17, 0, 1), std::uint16_t(1024 + (i % 40000)),
          80};
}

void BM_HashLabel(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::hash_label(label_for(++i)));
  }
}
BENCHMARK(BM_HashLabel);

void BM_FlowTableClassify(benchmark::State& state) {
  core::MaficConfig cfg;
  cfg.pdt_capacity = 1 << 20;
  cfg.nft_capacity = 1 << 20;
  core::FlowTables tables(cfg);
  const auto population = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < population; ++i) {
    if (i % 2 == 0) {
      tables.add_pdt_direct(sim::hash_label(label_for(i)));
    } else {
      tables.admit_sft(sim::hash_label(label_for(i)), label_for(i), 0.0,
                       0.2);
      tables.resolve(sim::hash_label(label_for(i)), core::TableKind::kNice);
    }
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tables.classify(sim::hash_label(label_for(++i % (2 * population)))));
  }
}
BENCHMARK(BM_FlowTableClassify)->Arg(1000)->Arg(10000)->Arg(100000);

/// Full filter datapath: a populated active one-shard filter (the head
/// mount's adapter) inspecting a stream of packets from already-classified
/// flows (the steady-state fast path).
void BM_MaficFilterSteadyState(benchmark::State& state) {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::PacketFactory factory;
  core::MaficConfig cfg;
  cfg.pdt_capacity = 1 << 20;
  cfg.nft_capacity = 1 << 20;
  auto filter = std::make_unique<core::ShardedMaficFilter>(
      &sim, &factory, atr, 1, cfg, nullptr);

  const util::Addr victim = util::make_addr(172, 17, 0, 1);
  filter->activate({victim});

  // Consume forwarded packets.
  class Sink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr) override {}
  } sink;
  filter->set_target(&sink);

  const auto population = static_cast<std::uint64_t>(state.range(0));
  std::vector<sim::FlowLabel> labels;
  for (std::uint64_t i = 0; i < population; ++i) {
    labels.push_back(label_for(i));
  }
  // Settle classification first: stream each flow, then run the clock so
  // the wheel's decision timers resolve every probation into NFT/PDT.
  // The measured loop is then the true steady state (zero admissions).
  for (int round = 0; round < 8; ++round) {
    const auto& tables = filter->engine(0).tables();
    if (tables.nft_size() + tables.pdt_size() >= population) break;
    for (const auto& label : labels) {
      const std::uint64_t key = sim::hash_label(label);
      if (tables.in_nft(key) || tables.in_pdt(key)) continue;
      auto p = factory.make();
      p->label = label;
      p->proto = sim::Protocol::kTcp;
      p->size_bytes = 1000;
      filter->recv(std::move(p));
    }
    sim.run_until(sim.now() + 1.0);
  }

  std::uint64_t i = 0;
  for (auto _ : state) {
    auto p = factory.make();
    p->label = labels[++i % population];
    p->proto = sim::Protocol::kTcp;
    p->size_bytes = 1000;
    filter->recv(std::move(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaficFilterSteadyState)->Arg(100)->Arg(10000);

void BM_PacketAllocationRecycling(benchmark::State& state) {
  sim::PacketFactory factory;
  for (auto _ : state) {
    auto p = factory.make();
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PacketAllocationRecycling);

/// Probation timer churn on the wheel: schedule a probe + decision pair,
/// cancel both (the early-resolution path). All O(1); allocation-free
/// once the slab is warm.
void BM_TimerWheelProbationChurn(benchmark::State& state) {
  sim::TimerWheel wheel(0.0005);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.0001;
    const sim::TimerId probe = wheel.schedule_at(t + 0.04, [] {});
    const sim::TimerId decision = wheel.schedule_at(t + 0.08, [] {});
    wheel.cancel(probe);
    wheel.cancel(decision);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheelProbationChurn);

/// The same churn on the binary-heap event queue (pre-refactor substrate):
/// O(log n) pushes plus lazily-cancelled corpses that compaction sweeps.
void BM_EventQueueProbationChurn(benchmark::State& state) {
  sim::EventQueue queue;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.0001;
    const sim::EventId probe = queue.push(t + 0.04, [] {});
    const sim::EventId decision = queue.push(t + 0.08, [] {});
    queue.cancel(probe);
    queue.cancel(decision);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueProbationChurn);

/// Wheel keep-alive reschedule (refresh path): one armed timer repeatedly
/// pushed to a later deadline.
void BM_TimerWheelReschedule(benchmark::State& state) {
  sim::TimerWheel wheel(0.0005);
  double t = 1.0;
  const sim::TimerId id = wheel.schedule_at(t, [] {});
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(wheel.reschedule(id, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheelReschedule);

/// Collects per-benchmark ns/iteration and appends it to the shared
/// machine-readable bench output.
class JsonAppendReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double ns = run.GetAdjustedRealTime();  // ns per iteration
      records_.push_back({"bench_filter_micro", run.benchmark_name(), 0, ns,
                          mafic::bench::read_vm_rss_kb()});
    }
  }

  const std::vector<mafic::bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<mafic::bench::BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonAppendReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Stamp the machine-speed calibration so the trajectory gate can
  // divide box-speed shifts out of cross-PR comparisons of these rows.
  const double calib_ns = mafic::bench::measure_calibration();
  auto records = reporter.records();
  for (auto& r : records) r.calib_ns = calib_ns;
  mafic::bench::append_records(mafic::bench::kFlowStoreJson, records);
  return 0;
}
