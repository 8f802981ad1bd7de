#include "core/filter_engine.hpp"

#include <algorithm>

#include "core/verdict_pipeline.hpp"

namespace mafic::core {

FilterEngine::FilterEngine(MaficConfig cfg, Clock* clock,
                           TimerService* timers, ProbeSink* probes,
                           const AddressPolicy* policy)
    : cfg_(cfg),
      clock_(clock),
      timers_(timers),
      probes_(probes),
      tables_(cfg_),
      rtt_(cfg_),
      policy_(policy) {
  // Probations leaving the SFT without a decision (capacity/quota
  // eviction or flush) must not leave their probe/decision timers armed:
  // the stale callbacks could fire into a *new* probation of the same
  // key. Capacity-class exits are also charged to the evicted entry's
  // victim, so multi-victim runs can see whose probations a flood
  // recycled (flushes are administrative, not attack pressure).
  tables_.set_eviction_hook([this](const SftEntry& e, EvictCause cause) {
    cancel_entry_timers(e);
    if (cause == EvictCause::kFlush) return;
    VictimStats& vs = victim_stats_[e.label.dst];
    ++vs.evictions;
    if (cause == EvictCause::kQuota) ++vs.quota_evictions;
  });
  // A flow under probation keeps its RTT estimate: recycling the slot
  // mid-probation would silently re-window the flow's *next* probation
  // from default_rtt even though the estimator had converged.
  rtt_.set_pin_check(
      [this](std::uint64_t key) { return tables_.find_sft(key) != nullptr; });
}

void FilterEngine::activate(const VictimSet& victims) {
  for (const auto v : victims) victims_.insert(v);
  if (cfg_.sft_victim_quota > 0.0) {
    // Register the victim classes for per-victim SFT quotas. VictimSet
    // iterates in ascending address order, so class indices are identical
    // no matter how the caller assembled the set — the scalar-vs-sharded
    // equivalence relies on every engine agreeing.
    std::vector<util::Addr> sorted(victims_.begin(), victims_.end());
    if (victim_weights_.empty()) {
      tables_.set_victim_classes(sorted);
    } else {
      // Victims without a registered weight default to 1.0 so a partial
      // weight map never zeroes out an unnamed victim's reservation.
      std::vector<double> weights;
      weights.reserve(sorted.size());
      for (const util::Addr v : sorted) {
        const auto it = std::lower_bound(
            victim_weights_.begin(), victim_weights_.end(), v,
            [](const auto& pair, util::Addr addr) {
              return pair.first < addr;
            });
        weights.push_back(it != victim_weights_.end() && it->first == v
                              ? it->second
                              : 1.0);
      }
      tables_.set_victim_classes(sorted, weights);
    }
  }
  active_ = true;
  single_victim_ = victims_.size() == 1;
  if (single_victim_) lone_victim_ = *victims_.begin();
  refresh();
}

void FilterEngine::set_victim_weights(
    std::vector<std::pair<util::Addr, double>> weights) {
  std::sort(weights.begin(), weights.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  victim_weights_ = std::move(weights);
}

void FilterEngine::refresh() {
  if (!active_ || cfg_.refresh_timeout <= 0.0) return;
  expires_at_ = clock_->now() + cfg_.refresh_timeout;
  // Keep-alive on the wheel: each refresh is an O(1) reschedule instead of
  // abandoning a lazily-cancelled heap event.
  if (expiry_timer_ != sim::kInvalidTimer &&
      timers_->reschedule(expiry_timer_, expires_at_)) {
    return;
  }
  expiry_timer_ = timers_->schedule_at(expires_at_, [this] {
    expiry_timer_ = sim::kInvalidTimer;
    if (active_) deactivate();  // "Pushback Continue? -> No"
  });
}

void FilterEngine::deactivate() {
  active_ = false;
  victims_.clear();
  single_victim_ = false;
  tables_.flush();  // "End dropping & Flush all tables"
  rtt_.clear();
  if (expiry_timer_ != sim::kInvalidTimer) {
    timers_->cancel(expiry_timer_);
    expiry_timer_ = sim::kInvalidTimer;
  }
}

// maficlint: hot
EngineVerdict FilterEngine::inspect(const sim::Packet& p) {
  if (!active_) return EngineVerdict::kForward;
  if (!victims_.contains(p.label.dst)) return EngineVerdict::kForward;
  if (p.proto == sim::Protocol::kControl) return EngineVerdict::kForward;
  return inspect_keyed(p, sim::hash_label(p.label));
}

// maficlint: hot
EngineVerdict FilterEngine::inspect_hashed(const sim::Packet& p,
                                           std::uint64_t key) {
  if (!active_) return EngineVerdict::kForward;
  if (!victims_.contains(p.label.dst)) return EngineVerdict::kForward;
  if (p.proto == sim::Protocol::kControl) return EngineVerdict::kForward;
  return inspect_keyed(p, key);
}

// maficlint: hot
template <typename GetPacket>
void FilterEngine::inspect_batch_impl(GetPacket&& get, std::size_t n,
                                      EngineVerdict* out) {
  constexpr std::size_t kWindow = VerdictPipeline::kWindow;
  std::uint64_t keys[kWindow];
  std::uint8_t hot[kWindow];  // victim-bound and inspectable

  // One clock sample per batch: drivers advance time only between
  // batches, so per-packet now() calls inside the batch are constant.
  const double now = clock_->now();
  auto engine_at = [this](std::size_t) -> FilterEngine& { return *this; };
  auto now_at = [now](std::size_t) { return now; };

  std::size_t i = 0;
  while (i < n) {
    const std::size_t m = std::min(kWindow, n - i);
    auto packet_at = [&get, i](std::size_t j) -> const sim::Packet& {
      return get(i + j);
    };
    VerdictPipeline::prehash_window(*this, packet_at, m, keys, hot);
    VerdictPipeline::window<false>(engine_at, packet_at, now_at, keys, hot,
                                   nullptr, m, out + i, nullptr);
    i += m;
  }
}

// maficlint: hot
void FilterEngine::inspect_batch(const sim::Packet* pkts, std::size_t n,
                                 EngineVerdict* out) {
  inspect_batch_impl(
      [pkts](std::size_t i) -> const sim::Packet& { return pkts[i]; }, n,
      out);
}

// maficlint: hot
void FilterEngine::inspect_batch(const sim::Packet* const* pkts,
                                 std::size_t n, EngineVerdict* out) {
  inspect_batch_impl(
      [pkts](std::size_t i) -> const sim::Packet& { return *pkts[i]; }, n,
      out);
}

// maficlint: hot
void FilterEngine::inspect_batch_keyed(const sim::Packet* const* pkts,
                                       const std::uint64_t* keys,
                                       const std::uint32_t* span_idx,
                                       std::size_t n, EngineVerdict* out,
                                       BatchSequencer* seq) {
  constexpr std::size_t kWindow = VerdictPipeline::kWindow;
  const double now = clock_->now();
  auto engine_at = [this](std::size_t) -> FilterEngine& { return *this; };
  auto now_at = [now](std::size_t) { return now; };

  std::size_t i = 0;
  while (i < n) {
    const std::size_t m = std::min(kWindow, n - i);
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      tables_.prefetch(keys[i + j + 0]);
      tables_.prefetch(keys[i + j + 1]);
      tables_.prefetch(keys[i + j + 2]);
      tables_.prefetch(keys[i + j + 3]);
    }
    for (; j < m; ++j) tables_.prefetch(keys[i + j]);
    auto packet_at = [pkts, i](std::size_t k) -> const sim::Packet& {
      return *pkts[i + k];
    };
    // kRegate: the active/victim/control gate is re-applied per packet in
    // the verdict pass, exactly as the old inspect_hashed walk did.
    VerdictPipeline::window<true>(engine_at, packet_at, now_at, keys + i,
                                  nullptr, span_idx + i, m, out + i, seq);
    i += m;
  }
}

// maficlint: hot
EngineVerdict FilterEngine::inspect_keyed(const sim::Packet& p,
                                          std::uint64_t key) {
  ++stats_.offered;
  if (on_offered_) on_offered_(p);

  const double now = clock_->now();

  // Router-side RTT refinement from the timestamp echo.
  if (p.tsecr > 0.0) rtt_.observe(key, now - p.tsecr);

  return classify_slow(p, key, now);
}

// maficlint: hot
EngineVerdict FilterEngine::classify_slow(const sim::Packet& p,
                                          std::uint64_t key, double now) {
  switch (tables_.classify(key, now)) {
    case TableKind::kPermanentDrop:
      ++stats_.dropped_pdt;
      return EngineVerdict::kDropPdt;

    case TableKind::kNice:
      ++stats_.forwarded;
      return EngineVerdict::kForward;

    case TableKind::kSuspicious: {
      SftEntry* e = tables_.find_sft(key);
      if (now >= e->deadline) {
        // Timer expired and the decision event has not fired yet (same
        // timestamp): decide now, then treat this packet under the new
        // table.
        const TableKind dest = decide(key);
        if (dest == TableKind::kPermanentDrop) {
          ++stats_.dropped_pdt;
          return EngineVerdict::kDropPdt;
        }
        ++stats_.forwarded;
        return EngineVerdict::kForward;
      }
      if (now < e->split_time) {
        ++e->baseline_count;
      } else {
        ++e->probe_count;
      }
      const bool drop_it = cfg_.drop_all_in_sft || pd_coin(key, p.uid);
      if (drop_it) {
        ++stats_.dropped_probation;
        return EngineVerdict::kDropProbation;
      }
      ++stats_.forwarded;
      return EngineVerdict::kForward;
    }

    case TableKind::kNone:
      break;
  }

  // New flow. Screen clearly-bogus sources first (paper section III-A).
  if (cfg_.address_screening && policy_ != nullptr &&
      !policy_->acceptable(p.label.src)) {
    tables_.add_pdt_direct(key);
    ++stats_.screened_sources;
    ++stats_.dropped_pdt;
    ++victim_stats_[p.label.dst].screened_sources;
    return EngineVerdict::kDropPdt;
  }

  // "Drop packet with probability Pd"; the drop is what opens probation.
  if (pd_coin(key, p.uid)) {
    admit(p, key);
    ++stats_.dropped_probation;
    return EngineVerdict::kDropProbation;
  }
  ++stats_.forwarded;
  return EngineVerdict::kForward;
}

void FilterEngine::admit(const sim::Packet& p, std::uint64_t key) {
  const double window = cfg_.probe_window_rtt_multiple * rtt_.rtt(key);
  SftEntry* e = tables_.admit_sft(key, p.label, clock_->now(), window);
  if (e == nullptr) return;  // raced into another table (should not happen)
  // The admitting packet itself is NOT counted into the baseline half:
  // it is present by construction (it opened the probation), so counting
  // it would bias the baseline up by one and let arrival jitter fake a
  // "decrease" on slow flows.
  if (cfg_.probe_enabled) schedule_probe(*e);
  schedule_decision(*e);
}

void FilterEngine::schedule_probe(SftEntry& e) {
  const std::uint64_t key = e.key;
  e.probe_timer = timers_->schedule_at(e.split_time, [this, key] {
    if (!active_) return;
    SftEntry* entry = tables_.find_sft(key);
    if (entry == nullptr || entry->probe_sent) return;
    entry->probe_sent = true;
    entry->probe_timer = sim::kInvalidTimer;
    ++stats_.probes_issued;
    probes_->send_probe(entry->label);
  });
}

void FilterEngine::schedule_decision(SftEntry& e) {
  const std::uint64_t key = e.key;
  // Epsilon after the deadline so that a packet arriving exactly at the
  // deadline is handled by the lazy path first (the wheel then rounds up
  // to its next tick, which the lazy path also covers).
  e.decision_timer =
      timers_->schedule_at(e.deadline + 1e-9, [this, key] {
        if (!active_) return;
        if (tables_.find_sft(key) != nullptr) decide(key);
      });
}

void FilterEngine::cancel_entry_timers(const SftEntry& e) {
  if (e.probe_timer != sim::kInvalidTimer) timers_->cancel(e.probe_timer);
  if (e.decision_timer != sim::kInvalidTimer) {
    timers_->cancel(e.decision_timer);
  }
}

TableKind FilterEngine::decide(std::uint64_t key) {
  SftEntry* e = tables_.find_sft(key);
  if (e == nullptr) return TableKind::kNone;

  cancel_entry_timers(*e);

  bool decreased;
  if (e->baseline_count < cfg_.min_baseline_packets) {
    // Too thin to judge: benefit of the doubt.
    decreased = true;
  } else {
    const bool relative_drop =
        static_cast<double>(e->probe_count) <
        cfg_.decrease_ratio * static_cast<double>(e->baseline_count);
    const bool absolute_drop =
        e->probe_count + cfg_.min_absolute_decrease <= e->baseline_count;
    decreased = relative_drop && absolute_drop;
  }

  const TableKind dest =
      decreased ? TableKind::kNice : TableKind::kPermanentDrop;
  const SftEntry resolved = tables_.resolve(key, dest, clock_->now());
  VictimStats& vs = victim_stats_[resolved.label.dst];
  if (dest == TableKind::kNice) {
    ++stats_.decided_nice;
    ++vs.decided_nice;
  } else {
    ++stats_.decided_malicious;
    ++vs.decided_malicious;
  }
  if (on_classified_) on_classified_(resolved, dest);
  return dest;
}

}  // namespace mafic::core
