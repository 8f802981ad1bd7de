#pragma once

/// \file victim_detector.hpp
/// Watches the per-epoch traffic-matrix snapshots and raises an alarm when
/// some router's egress cardinality |Dj| becomes "abnormally high"
/// (paper section II) relative to its EWMA baseline. Baselines freeze
/// while a router is alarming, and after warmup also on any epoch above
/// clear_factor x baseline, so neither an attack nor its ramp-up poisons
/// them.

#include <functional>
#include <vector>

#include "sketch/traffic_matrix.hpp"
#include "util/stats.hpp"

namespace mafic::pushback {

struct AttackAlarm {
  sim::NodeId router = sim::kInvalidNode;
  double time = 0.0;
  double observed = 0.0;  ///< |Dj| estimate this epoch
  double baseline = 0.0;  ///< EWMA baseline before the alarm
};

class VictimDetector {
 public:
  struct Config {
    int warmup_epochs = 3;       ///< epochs before detection may fire
    double trigger_factor = 2.5; ///< alarm when d > factor * baseline
    double clear_factor = 1.5;   ///< clear when d < factor * baseline
    double min_packets_per_epoch = 100.0;  ///< absolute floor for alarms
    double ewma_alpha = 0.3;
  };

  using AlarmCallback = std::function<void(
      const AttackAlarm&, const sketch::TrafficMatrixSnapshot&)>;
  using ClearCallback = std::function<void(sim::NodeId, double)>;

  VictimDetector() : VictimDetector(Config{}) {}
  explicit VictimDetector(Config cfg) : cfg_(cfg) {}

  /// Feed one epoch snapshot (wire this to TrafficMonitor::subscribe).
  void on_epoch(const sketch::TrafficMatrixSnapshot& snap);

  void set_alarm_callback(AlarmCallback cb) { on_alarm_ = std::move(cb); }
  void set_clear_callback(ClearCallback cb) { on_clear_ = std::move(cb); }

  bool alarming(sim::NodeId router) const {
    return router < states_.size() && states_[router].alarming;
  }
  double baseline(sim::NodeId router) const {
    return router < states_.size() ? states_[router].baseline.value() : 0.0;
  }
  std::uint64_t alarms_raised() const noexcept { return alarms_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  struct RouterState {
    /// No default constructor on purpose: every state must be built from
    /// the configured alpha. (A member initializer with its own constant
    /// used to live here; it was silently dead — on_epoch's resize always
    /// overrode it — and a config-ignoring trap for any future
    /// default-constructed state.)
    explicit RouterState(double ewma_alpha) : baseline(ewma_alpha) {}

    util::Ewma baseline;
    int epochs_seen = 0;
    bool alarming = false;
  };

  Config cfg_;
  std::vector<RouterState> states_;
  AlarmCallback on_alarm_;
  ClearCallback on_clear_;
  std::uint64_t alarms_ = 0;
};

}  // namespace mafic::pushback
