#include "core/sharded_filter.hpp"

#include <bit>
#include <cassert>

#include "core/verdict_pipeline.hpp"

namespace mafic::core {

namespace {
struct Partition {
  unsigned bits;
  unsigned shift;
};

Partition partition_for(std::size_t shard_count) {
  assert(std::has_single_bit(shard_count));
  const auto bits = static_cast<unsigned>(std::countr_zero(shard_count));
  return {bits, 64 - bits};
}
}  // namespace

ShardedFilter::ShardedFilter(std::size_t shard_count, const MaficConfig& cfg,
                             const AddressPolicy* policy) {
  shard_count = usable_shard_count(shard_count);
  const Partition part = partition_for(shard_count);
  shard_bits_ = part.bits;
  shift_ = part.shift;
  runtimes_.reserve(shard_count);
  engines_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    runtimes_.push_back(std::make_unique<EngineRuntime>(cfg, policy));
    engines_.push_back(&runtimes_.back()->engine());
  }
}

ShardedFilter::ShardedFilter(std::size_t shard_count, const MaficConfig& cfg,
                             const AddressPolicy* policy, std::uint64_t,
                             const SeamProvider& seams) {
  shard_count = usable_shard_count(shard_count);
  const Partition part = partition_for(shard_count);
  shard_bits_ = part.bits;
  shift_ = part.shift;
  owned_engines_.reserve(shard_count);
  engines_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    const ShardSeams s = seams(i);
    assert(s.clock != nullptr && s.timers != nullptr && s.probes != nullptr);
    owned_engines_.push_back(std::make_unique<FilterEngine>(
        cfg, s.clock, s.timers, s.probes, policy));
    engines_.push_back(owned_engines_.back().get());
  }
}

void ShardedFilter::set_victim_weights(
    const std::vector<std::pair<util::Addr, double>>& weights) {
  for (auto* e : engines_) e->set_victim_weights(weights);
}

void ShardedFilter::activate(const VictimSet& victims) {
  for (auto* e : engines_) e->activate(victims);
}

void ShardedFilter::refresh() {
  for (auto* e : engines_) e->refresh();
}

void ShardedFilter::deactivate() {
  for (auto* e : engines_) e->deactivate();
}

bool ShardedFilter::active() const noexcept {
  return !engines_.empty() && engines_.front()->active();
}

EngineVerdict ShardedFilter::inspect(const sim::Packet& p) {
  // Hash once: the routing key doubles as the table key.
  const std::uint64_t key = sim::hash_label(p.label);
  return engines_[shard_of(key)]->inspect_hashed(p, key);
}

void ShardedFilter::partition_span(const sim::Packet* const* pkts,
                                   std::size_t n, SpanPartition& out) const {
  out.hot.resize(n);
  out.keys.resize(n);
  out.shard.resize(n);
  partition_span_range(pkts, 0, n, out);
}

// maficlint: hot
void ShardedFilter::partition_span_range(const sim::Packet* const* pkts,
                                         std::size_t begin, std::size_t end,
                                         SpanPartition& out) const {
  // Every shard shares the activation state and victim set (the control
  // plane fans out), so the first engine's hot gate decides for all of
  // them — cold packets skip the hash and the shard-id slice.
  const FilterEngine& gate = *engines_.front();
  const auto one = [&](std::size_t i) {
    const bool h = gate.wants(*pkts[i]);
    out.hot[i] = h ? 1 : 0;
    if (h) {
      out.keys[i] = sim::hash_label(pkts[i]->label);
      out.shard[i] = static_cast<std::uint32_t>(shard_of(out.keys[i]));
    }
  };
  // 4-wide unroll: the mix64 chains of consecutive packets carry no
  // dependence on each other, so the multiplies schedule in parallel.
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    one(i + 0);
    one(i + 1);
    one(i + 2);
    one(i + 3);
  }
  for (; i < end; ++i) one(i);
}

void ShardedFilter::inspect_batch(const sim::Packet* const* pkts,
                                  std::size_t n, EngineVerdict* out) {
  partition_span(pkts, n, part_);
  // One clock sample per shard per batch (drivers advance time only
  // between batches); the pipeline's now_at indexes this by home shard.
  nows_.resize(engines_.size());
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    nows_[s] = engines_[s]->now();
  }
  auto engine_at = [this](std::size_t j) -> FilterEngine& {
    return *engines_[part_.shard[j]];
  };
  auto packet_at = [pkts](std::size_t j) -> const sim::Packet& {
    return *pkts[j];
  };
  auto now_at = [this](std::size_t j) { return nows_[part_.shard[j]]; };

  constexpr std::size_t kWindow = VerdictPipeline::kWindow;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t m = n - i < kWindow ? n - i : kWindow;
    for (std::size_t j = 0; j < m; ++j) {
      if (part_.hot[i + j] != 0) {
        engines_[part_.shard[i + j]]->tables().prefetch(part_.keys[i + j]);
      }
    }
    // kRegate mirrors the old per-packet inspect_hashed walk: the
    // active/victim/control gate re-applies inside the verdict pass. One
    // interleaved arrival-order walk across shards, so cross-shard timer
    // and probe scheduling order is exactly the single-engine order.
    auto engine_off = [&engine_at, i](std::size_t j) -> FilterEngine& {
      return engine_at(i + j);
    };
    auto packet_off = [&packet_at, i](std::size_t j) -> const sim::Packet& {
      return packet_at(i + j);
    };
    auto now_off = [&now_at, i](std::size_t j) { return now_at(i + j); };
    VerdictPipeline::window<true>(engine_off, packet_off, now_off,
                                  part_.keys.data() + i,
                                  part_.hot.data() + i, nullptr, m, out + i,
                                  nullptr);
    i += m;
  }
}

void ShardedFilter::advance_until(double t) {
  assert(owned_engines_.empty() &&
         "advance_until is standalone-mode only; external seams are "
         "driven by their environment");
  for (auto& s : runtimes_) s->advance_until(t);
}

FilterEngine::Stats ShardedFilter::aggregate_stats() const {
  FilterEngine::Stats sum;
  for (const auto* e : engines_) {
    const FilterEngine::Stats& st = e->stats();
    sum.offered += st.offered;
    sum.forwarded += st.forwarded;
    sum.dropped_probation += st.dropped_probation;
    sum.dropped_pdt += st.dropped_pdt;
    sum.screened_sources += st.screened_sources;
    sum.probes_issued += st.probes_issued;
    sum.decided_nice += st.decided_nice;
    sum.decided_malicious += st.decided_malicious;
  }
  return sum;
}

FlowTables::Stats ShardedFilter::aggregate_tables_stats() const {
  FlowTables::Stats sum;
  for (const auto* e : engines_) {
    const FlowTables::Stats& st = e->tables().stats();
    sum.sft_admissions += st.sft_admissions;
    sum.sft_evictions += st.sft_evictions;
    sum.quota_evictions += st.quota_evictions;
    sum.moved_to_nft += st.moved_to_nft;
    sum.moved_to_pdt += st.moved_to_pdt;
    sum.direct_pdt += st.direct_pdt;
    sum.nft_expirations += st.nft_expirations;
    sum.flushes += st.flushes;
  }
  return sum;
}

FilterEngine::VictimStats ShardedFilter::victim_stats_for(
    util::Addr victim) const {
  FilterEngine::VictimStats sum;
  for (const auto* e : engines_) {
    const auto& per = e->victim_stats();
    const auto it = per.find(victim);
    if (it == per.end()) continue;
    sum.decided_nice += it->second.decided_nice;
    sum.decided_malicious += it->second.decided_malicious;
    sum.screened_sources += it->second.screened_sources;
    sum.evictions += it->second.evictions;
    sum.quota_evictions += it->second.quota_evictions;
  }
  return sum;
}

std::size_t ShardedFilter::resident() const {
  std::size_t n = 0;
  for (const auto* e : engines_) n += e->tables().resident();
  return n;
}

}  // namespace mafic::core
