// replay_mix: raw classify replay with no simulator.
//
// A 4-shard ShardedFilter, driven on the calling thread through seams the
// benchmark supplies (the library's ManualClock and CountingProbeSink, and
// a TimerService that counts and, traced, times every operation over the
// library's wheel service), is warmed with kWarmFlows legitimate flows
// resolved into the NFT, and its SFT is then filled to capacity with
// spoofed probations. A pre-generated trace replays zipf(1.0) popularity
// over the warmed flows plus a fixed share of fresh spoofed flows (each an
// admission that evicts), in bursts of a NIC receive batch. The trace holds
// flow indices; each burst's packets are built in a reused buffer before
// its clock starts. The clock does not move during the replay, so the
// trace is stationary and every repetition sees the same table state.
//
// Before anything is timed, a twin fixture in a child process replays the
// same trace through scalar inspect(); every timed verdict is compared with
// that stream.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/sharded_filter.hpp"
#include "core/standalone_runtime.hpp"
#include "scenario/scenario_catalog.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mafic::core;
namespace sim = mafic::sim;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::uint64_t kWarmFlows = 1u << 20;
constexpr std::size_t kTracePackets = 4u << 20;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kMaxPasses = 16;
/// SFT admissions per packet offered to the defense, measured by
/// churn_detect's traced run at its catalog seed 55 (core.sft_admissions /
/// core.offered = 1476 / 8677).
constexpr double kAdmissionsPerPacket = 1476.0 / 8677.0;
/// A trace entry is a warm flow's index, or kFresh | a fresh label's index.
constexpr std::uint32_t kFresh = 1u << 31;
constexpr std::uint64_t kTraceUidBase = 1ull << 40;
constexpr double kProbationS = 0.25;  ///< past every 2 x max_rtt deadline
const mafic::util::Addr kVictim = mafic::util::make_addr(172, 17, 0, 1);

sim::FlowLabel warm_label(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t h = mafic::util::mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL));
  return {mafic::util::make_addr(10, (i >> 16) & 0xff, (i >> 8) & 0xff, i & 0xff),
          kVictim, std::uint16_t(1024 + h % 60000), 80};
}

sim::FlowLabel fresh_label(std::uint64_t seed, std::uint64_t j) {
  const std::uint64_t h = mafic::util::mix64(~seed ^ (j * 0xc2b2ae3d27d4eb4fULL));
  return {mafic::util::make_addr(60, (j >> 16) & 0xff, (j >> 8) & 0xff, j & 0xff),
          kVictim, std::uint16_t(1024 + h % 60000), 80};
}

/// The catalog entry churn_detect runs; the replay takes its table size,
/// Pd and admission rate from it.
const mafic::scenario::ScenarioSpec& churn_spec() {
  return mafic::scenario::find_scenario("spoof_churn")->spec;
}

/// SFT slots per shard: what every shard of a spoof_churn ATR filter gets
/// (the experiment hands each shard the configured sft_capacity).
std::size_t sft_per_shard() { return churn_spec().sft_capacity; }

/// Share of trace packets that open a fresh spoofed flow. A fresh flow is
/// admitted only when its first packet loses the Pd coin, so this share
/// times Pd gives churn_detect's admissions per packet.
double fresh_share() { return kAdmissionsPerPacket / churn_spec().drop_probability; }

sim::Packet make_packet(const sim::FlowLabel& label, std::uint64_t uid) {
  sim::Packet p;
  p.label = label;
  p.proto = sim::Protocol::kTcp;
  p.size_bytes = 600;
  p.uid = uid;
  return p;
}

/// The shards' timer service: the library's wheel-backed service, with
/// every operation counted and, when traced, wrapped in a span.
class BenchTimers final : public core::TimerService {
 public:
  BenchTimers(core::ManualClock* clock, double resolution, Tracer* tracer)
      : inner_(clock, resolution), tracer_(tracer) {}

  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  sim::TimerId schedule_at(double t, core::TimerFn fn) override {
    Scope s(*tracer_, "core.timer");
    ++ops_;
    return inner_.schedule_at(t, std::move(fn));
  }
  bool cancel(sim::TimerId id) override {
    Scope s(*tracer_, "core.timer");
    ++ops_;
    return inner_.cancel(id);
  }
  bool reschedule(sim::TimerId id, double t) override {
    Scope s(*tracer_, "core.timer");
    ++ops_;
    return inner_.reschedule(id, t);
  }

  void advance_until(double t) { inner_.advance_until(t); }
  std::uint64_t ops() const noexcept { return ops_; }

 private:
  core::WheelTimerService inner_;
  Tracer* tracer_;
  std::uint64_t ops_ = 0;
};

core::MaficConfig fixture_config(std::uint64_t seed) {
  core::MaficConfig cfg;
  const std::uint64_t per_shard = kWarmFlows / kShards;
  cfg.nft_capacity = per_shard + per_shard / 8 + 1024;
  cfg.pdt_capacity = 4096;
  cfg.sft_capacity = sft_per_shard();
  cfg.drop_probability = churn_spec().drop_probability;
  cfg.probe_enabled = false;  // no wired topology to probe through
  cfg.default_rtt = cfg.max_rtt;
  cfg.coin_mode = core::CoinMode::kPacketHash;
  cfg.coin_seed = mafic::util::mix64(seed ^ 0x5eedULL);
  return cfg;
}

/// A warmed 4-shard filter with its seams.
struct Fixture {
  struct Env {
    core::ManualClock clock;
    BenchTimers timers;
    core::CountingProbeSink probes;
    Env(double resolution, Tracer* tracer) : timers(&clock, resolution, tracer) {}
  };
  std::vector<std::unique_ptr<Env>> env;
  std::unique_ptr<core::ShardedFilter> filter;
  std::uint64_t fresh_used = 0;  ///< spoofed labels the prefill consumed
  double now = 0.0;

  void advance_until(double t) {
    for (auto& e : env) e->timers.advance_until(t);
    now = t;
  }
  std::uint64_t timer_ops() const {
    std::uint64_t n = 0;
    for (const auto& e : env) n += e->timers.ops();
    return n;
  }
  std::size_t sft_min() const {
    std::size_t m = SIZE_MAX;
    for (std::size_t i = 0; i < filter->shard_count(); ++i) {
      m = std::min(m, filter->engine(i).tables().sft_size());
    }
    return m;
  }
};

/// Builds and warms a fixture: every warm flow admitted and resolved into
/// the NFT in chunks that fit the SFT, then the SFT filled with spoofed
/// probations. Deterministic in `seed`.
std::unique_ptr<Fixture> build_fixture(std::uint64_t seed, Tracer* tracer) {
  auto fx = std::make_unique<Fixture>();
  const core::MaficConfig cfg = fixture_config(seed);
  for (std::size_t i = 0; i < kShards; ++i) {
    fx->env.push_back(std::make_unique<Fixture::Env>(cfg.timer_wheel_resolution, tracer));
  }
  fx->filter = std::make_unique<core::ShardedFilter>(
      kShards, cfg, nullptr, seed, [&](std::size_t i) {
        Fixture::Env& e = *fx->env[i];
        return core::ShardedFilter::ShardSeams{&e.clock, &e.timers, &e.probes};
      });
  fx->filter->activate({kVictim});

  // Warm-up: offer each flow until the Pd coin admits it, a chunk small
  // enough that no shard's SFT overflows, then let the probations expire
  // into the NFT.
  std::uint64_t uid = 1;
  const std::size_t sft = sft_per_shard();
  const std::uint64_t chunk = kShards * sft / 4;
  std::vector<std::uint64_t> pending;
  for (std::uint64_t base = 0; base < kWarmFlows; base += chunk) {
    pending.clear();
    for (std::uint64_t i = base; i < std::min(kWarmFlows, base + chunk); ++i) {
      pending.push_back(i);
    }
    while (!pending.empty()) {
      std::size_t keep = 0;
      for (const std::uint64_t i : pending) {
        const sim::Packet p = make_packet(warm_label(seed, i), uid++);
        fx->filter->inspect(p);
        const std::uint64_t key = sim::hash_label(p.label);
        const auto kind =
            fx->filter->engine(fx->filter->shard_of(key)).tables().peek(key).kind;
        if (kind != core::TableKind::kSuspicious) pending[keep++] = i;
      }
      pending.resize(keep);
    }
    fx->advance_until(fx->now + kProbationS);
  }
  std::size_t nft = 0;
  for (std::size_t i = 0; i < kShards; ++i) nft += fx->filter->engine(i).tables().nft_size();
  if (nft != kWarmFlows) {
    throw std::runtime_error("replay warm-up left " + std::to_string(nft) + " of " +
                             std::to_string(kWarmFlows) + " flows in the NFT");
  }
  // Full SFT: spoofed probations until every shard is at capacity.
  while (fx->sft_min() < sft) {
    fx->filter->inspect(make_packet(fresh_label(seed, fx->fresh_used++), uid++));
  }
  return fx;
}

/// The trace: zipf(1.0) over the warmed flows, fresh_share() of the
/// packets fresh spoofed flows past the prefill's labels.
std::vector<std::uint32_t> build_trace(std::uint64_t seed, std::uint64_t fresh_base) {
  std::vector<double> cdf(kWarmFlows);
  double total = 0.0;
  for (std::uint64_t i = 0; i < kWarmFlows; ++i) {
    total += 1.0 / double(i + 1);
    cdf[i] = total;
  }
  // Popularity rank -> flow: a seeded permutation, so the hot flows land
  // on shards independently of their index.
  std::vector<std::uint32_t> flow_of_rank(kWarmFlows);
  for (std::uint64_t i = 0; i < kWarmFlows; ++i) flow_of_rank[i] = std::uint32_t(i);
  mafic::util::Rng rng(mafic::util::mix64(seed ^ 0x21bf0ccaULL));
  rng.shuffle(flow_of_rank);

  const double fresh_p = fresh_share();
  std::vector<std::uint32_t> t;
  t.reserve(kTracePackets);
  std::uint64_t fresh = fresh_base;
  for (std::uint64_t i = 0; i < kTracePackets; ++i) {
    if (rng.uniform01() < fresh_p) {
      t.push_back(kFresh | std::uint32_t(fresh++));
      continue;
    }
    const double u = rng.uniform01() * total;
    const auto rank = std::uint64_t(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    t.push_back(flow_of_rank[std::min(rank, kWarmFlows - 1)]);
  }
  return t;
}

/// One burst's packets, built from trace entries in a reused buffer.
struct Burst {
  sim::Packet pkts[kBurst];
  const sim::Packet* ptrs[kBurst];
  std::size_t n = 0;

  Burst() {
    for (std::size_t i = 0; i < kBurst; ++i) ptrs[i] = &pkts[i];
  }
  /// Fills the burst with trace[at, at + kBurst), clipped to the trace;
  /// a packet's uid follows its trace position.
  void fill(std::uint64_t seed, const std::vector<std::uint32_t>& trace, std::size_t at) {
    n = std::min(kBurst, trace.size() - at);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = trace[at + i];
      pkts[i] = make_packet((e & kFresh) != 0 ? fresh_label(seed, e & ~kFresh)
                                              : warm_label(seed, e),
                            kTraceUidBase + at + i);
    }
  }
};

struct Totals {
  core::FilterEngine::Stats engine;
  core::FlowTables::Stats tables;
  std::uint64_t timer_ops = 0;
};

Totals totals(const Fixture& fx) {
  return {fx.filter->aggregate_stats(), fx.filter->aggregate_tables_stats(),
          fx.timer_ops()};
}

}  // namespace

Result run_replay_mix(const Options& opt) {
  const std::uint64_t seed = opt.seed_given ? opt.seed : 1;
  Tracer off(false);
  Result out;
  // Pin glibc's mmap threshold at its 128 KiB default. Freeing the twin's
  // 20 MB reply would otherwise raise it, so the fixture's tables would come
  // from a fragmented heap and peak RSS would depend on the seed's order of
  // table growth (105-127 MB over ten seeds) instead of on the tables.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // The twin fixture is the oracle; its prefill also tells the trace where
  // the fresh spoofed labels start. It runs in a child process, before
  // anything is timed, and sends back the trace and its verdicts.
  std::vector<std::uint32_t> trace(kTracePackets);
  std::vector<core::EngineVerdict> oracle(kTracePackets);
  {
    const std::string reply = run_in_child([&] {
      auto twin = build_fixture(seed, &off);
      const std::vector<std::uint32_t> t = build_trace(seed, twin->fresh_used);
      std::string bytes;
      bytes.reserve(t.size() * (sizeof(std::uint32_t) + sizeof(core::EngineVerdict)));
      Burst burst;
      for (std::size_t at = 0; at < t.size(); at += kBurst) {
        burst.fill(seed, t, at);
        for (std::size_t i = 0; i < burst.n; ++i) {
          put(bytes, t[at + i]);
          put(bytes, twin->filter->inspect(burst.pkts[i]));
        }
      }
      return bytes;
    });
    std::size_t at = 0;
    for (std::size_t i = 0; i < kTracePackets; ++i) {
      trace[i] = get<std::uint32_t>(reply, at);
      oracle[i] = get<core::EngineVerdict>(reply, at);
    }
  }
  std::vector<core::EngineVerdict> verdicts(trace.size());
  Burst burst;

  // Each pass keeps its own burst percentiles; the burst samples live in
  // one reused buffer, so memory does not grow with the number of passes.
  std::vector<double> setup_s, run_s, p50_us, p90_us;
  std::vector<double> burst_us((trace.size() + kBurst - 1) / kBurst);
  const double begin = now_s();
  double s0 = begin;
  do {
    s0 = now_s();
    auto fx = build_fixture(seed, &off);
    setup_s.push_back(now_s() - s0);

    // The pass's time is the time inside inspect_batch.
    double pass_s = 0.0;
    for (std::size_t at = 0; at < trace.size(); at += kBurst) {
      burst.fill(seed, trace, at);
      const double b0 = now_s();
      fx->filter->inspect_batch(burst.ptrs, burst.n, verdicts.data() + at);
      const double dt = now_s() - b0;
      burst_us[at / kBurst] = dt * 1e6;
      pass_s += dt;
    }
    run_s.push_back(pass_s);
    p50_us.push_back(quantile(burst_us, 0.5));
    p90_us.push_back(quantile(burst_us, 0.9));

    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) bad += verdicts[i] != oracle[i];
    if (bad != 0) std::printf("FAILED replay: %llu verdicts differ from scalar inspect()\n",
                              static_cast<unsigned long long>(bad));
    out.attempted += trace.size();
    out.failed += bad;
    std::printf("rep %zu: setup %.3f s, replay %.3f s (%zu packets), bursts p50 %.2f p90 %.2f "
                "p99 %.2f us\n",
                setup_s.size(), setup_s.back(), run_s.back(), trace.size(), p50_us.back(),
                p90_us.back(), quantile(burst_us, 0.99));
  } while (!opt.trace && setup_s.size() < kMaxPasses && another_fits(begin, s0, opt.seconds));

  Values& v = out.values;
  if (!opt.trace) {
    v["setup_s"] = median(setup_s);
    v["run_s"] = median(run_s);
    v["peak_rss_mb"] = peak_rss_mb();
    v["classify_mpps"] = double(trace.size()) / median(run_s) / 1e6;
    v["burst_p50_us"] = median(p50_us);
    v["burst_p90_us"] = median(p90_us);
    std::printf("samples: %zu set-ups and passes of %zu bursts of %zu packets\n",
                setup_s.size(), burst_us.size(), kBurst);
    return out;
  }

  // Traced: one more fixture whose bursts are wrapped in spans, with the
  // partition pass and the table lookups timed beside the real call.
  Tracer tr(true);
  std::unique_ptr<Fixture> fx;
  {
    Scope s(tr, "core.warm");
    fx = build_fixture(seed, &off);
  }
  for (auto& e : fx->env) e->timers.set_tracer(&tr);
  const Totals before = totals(*fx);
  core::ShardedFilter::SpanPartition part;
  std::uint64_t kinds = 0;
  // As untraced, the pass's time excludes building the burst's packets.
  double traced_run_s = 0.0;
  std::int32_t run_span = tr.open("bench.run");
  for (std::size_t at = 0; at < trace.size(); at += kBurst) {
    burst.fill(seed, trace, at);
    const double b0 = now_s();
    {
      Scope s(tr, "core.partition");
      fx->filter->partition_span(burst.ptrs, burst.n, part);
    }
    {
      Scope s(tr, "core.classify");
      for (std::size_t i = 0; i < burst.n; ++i) {
        const std::uint64_t key = sim::hash_label(burst.pkts[i].label);
        kinds += std::uint64_t(
            fx->filter->engine(fx->filter->shard_of(key)).tables().peek(key).kind);
      }
    }
    {
      Scope s(tr, "core.inspect_batch");
      fx->filter->inspect_batch(burst.ptrs, burst.n, verdicts.data() + at);
    }
    traced_run_s += now_s() - b0;
  }
  tr.close(run_span);
  out.attempted += trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) out.failed += verdicts[i] != oracle[i];
  const Totals after = totals(*fx);

  const std::vector<Span>& spans = tr.spans();
  const double pkts = double(trace.size());
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return double(a - b); };
  v["core.offered"] = delta(after.engine.offered, before.engine.offered);
  v["core.dropped_probation"] =
      delta(after.engine.dropped_probation, before.engine.dropped_probation);
  v["core.dropped_pdt"] = delta(after.engine.dropped_pdt, before.engine.dropped_pdt);
  v["core.sft_admissions"] = delta(after.tables.sft_admissions, before.tables.sft_admissions);
  v["core.sft_evictions"] = delta(after.tables.sft_evictions, before.tables.sft_evictions);
  v["core.probes_issued"] = delta(after.engine.probes_issued, before.engine.probes_issued);
  const double admissions = v["core.sft_admissions"];
  v["core.decided_per_admission"] =
      admissions > 0 ? (delta(after.tables.moved_to_nft, before.tables.moved_to_nft) +
                        delta(after.tables.moved_to_pdt, before.tables.moved_to_pdt)) /
                           admissions
                     : 0.0;
  v["core.inspect_ns_per_pkt"] = total_s(spans, "core.inspect_batch") * 1e9 / pkts;
  v["core.classify_ns_per_pkt"] = total_s(spans, "core.classify") * 1e9 / pkts;
  v["core.partition_ns_per_pkt"] = total_s(spans, "core.partition") * 1e9 / pkts;
  v["core.timer_ops"] = double(after.timer_ops - before.timer_ops);
  v["core.timer_s"] = total_s(spans, "core.timer");
  std::printf("traced lookups: table-kind sum %llu\n", static_cast<unsigned long long>(kinds));
  add_self_times(v, spans);
  v["trace.run_s"] = traced_run_s;
  v["trace.overhead_s"] = traced_run_s - run_s.front();
  v["trace.spans"] = double(spans.size());
  out.spans = tr.spans();
  return out;
}

}  // namespace perfbench
