#include "pushback/victim_detector.hpp"

#include <algorithm>

namespace mafic::pushback {

void VictimDetector::on_epoch(const sketch::TrafficMatrixSnapshot& snap) {
  if (states_.size() < snap.d.size()) {
    states_.resize(snap.d.size(), RouterState{cfg_.ewma_alpha});
  }

  for (std::size_t j = 0; j < snap.d.size(); ++j) {
    auto& st = states_[j];
    const double d = snap.d[j].estimate();
    ++st.epochs_seen;

    if (!st.alarming) {
      const double base = st.baseline.initialized()
                              ? st.baseline.value()
                              : d;  // first epoch: self-baseline
      const bool warm = st.epochs_seen > cfg_.warmup_epochs;
      const bool high = d > std::max(cfg_.min_packets_per_epoch,
                                     cfg_.trigger_factor * base) &&
                        st.baseline.initialized();
      if (warm && high) {
        st.alarming = true;
        ++alarms_;
        if (on_alarm_) {
          on_alarm_(AttackAlarm{static_cast<sim::NodeId>(j), snap.epoch_end,
                                d, base},
                    snap);
        }
        continue;  // baseline frozen while alarming
      }
      // After warmup, an epoch above the clear band is not normal
      // traffic either: absorbing it would let a flood that ramps in
      // under trigger_factor per epoch drag the baseline up and never
      // alarm. During warmup every epoch feeds the baseline, so it can
      // settle from its first-epoch self-baseline.
      if (warm && d > cfg_.clear_factor * base) continue;
      st.baseline.update(d);
    } else {
      // Clear hysteresis must honor the same absolute floor the trigger
      // path applies: an alarm needs d > max(min_packets_per_epoch,
      // trigger_factor * base), so traffic that has subsided BELOW the
      // floor could never re-trigger and must clear — otherwise a flood
      // over a small frozen baseline (e.g. base 30, floor 100) that drops
      // to 50 pkts/epoch keeps the router alarming forever and the
      // baseline never thaws.
      const double base = st.baseline.value();
      const double clear_below = std::max(
          cfg_.clear_factor * std::max(base, 1.0),
          cfg_.min_packets_per_epoch);
      if (d < clear_below) {
        st.alarming = false;
        if (on_clear_) {
          on_clear_(static_cast<sim::NodeId>(j), snap.epoch_end);
        }
        st.baseline.update(d);
      }
    }
  }
}

}  // namespace mafic::pushback
