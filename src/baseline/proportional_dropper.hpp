#pragma once

/// \file proportional_dropper.hpp
/// The baseline MAFIC improves upon (paper section II, closing paragraph):
/// "in [2] we only used a simple proportionate packet dropping approach,
/// i.e., all packets, legitimate or malicious, are dropped with the same
/// probability." Flow-blind Pd dropping on everything bound for the
/// victim.
///
/// The coin is FilterEngine's Pd coin (util::hash_coin over coin_seed,
/// flow-label hash and packet uid), so a packet's fate is independent of
/// inspection order and batching: the inspect_burst override walks the
/// span without touching any mutable coin state, and its verdict stream
/// is bit-identical to the per-packet path (test_baseline pins both the
/// identity and golden drop counts at fixed seeds).

#include <cstdint>

#include "core/actuator.hpp"
#include "sim/connector.hpp"
#include "util/hash.hpp"

namespace mafic::baseline {

class ProportionalDropper final : public sim::InlineFilter,
                                  public core::DefenseActuator {
 public:
  struct Stats {
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t forwarded = 0;
  };

  ProportionalDropper(double drop_probability, std::uint64_t coin_seed)
      : pd_(drop_probability), coin_seed_(coin_seed) {}

  // --- DefenseActuator ---
  void activate(const core::VictimSet& victims) override {
    for (const auto v : victims) victims_.insert(v);
    active_ = true;
  }
  void refresh() override {}
  void deactivate() override {
    active_ = false;
    victims_.clear();
  }
  bool active() const noexcept override { return active_; }

  using OfferedCallback = std::function<void(const sim::Packet&)>;
  void set_offered_callback(OfferedCallback cb) {
    on_offered_ = std::move(cb);
  }

  double drop_probability() const noexcept { return pd_; }
  const Stats& stats() const noexcept { return stats_; }

 protected:
  Decision inspect(sim::Packet& p) override { return decide(p); }

  /// Span walk sharing decide(): the coin reads no mutable state, so
  /// verdicts are bit-identical to per-packet inspection.
  void inspect_burst(sim::PacketPtr* pkts, std::size_t n,
                     Decision* out) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = decide(*pkts[i]);
  }

 private:
  Decision decide(const sim::Packet& p) {
    if (!active_ || !victims_.contains(p.label.dst)) {
      return Decision::forward();
    }
    ++stats_.offered;
    if (on_offered_) on_offered_(p);
    if (util::hash_coin(pd_, coin_seed_, sim::hash_label(p.label),
                        p.uid)) {
      ++stats_.dropped;
      return Decision::drop(sim::DropReason::kDefenseBaseline);
    }
    ++stats_.forwarded;
    return Decision::forward();
  }

  double pd_;
  std::uint64_t coin_seed_;
  bool active_ = false;
  core::VictimSet victims_;
  OfferedCallback on_offered_;
  Stats stats_;
};

}  // namespace mafic::baseline
