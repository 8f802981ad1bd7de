#pragma once

/// \file coordinator.hpp
/// The pushback actuator registry: every defense actuator is registered
/// under the router it lives at, and both trigger modes actuate through
/// it. The scripted trigger calls activate_router() once per in-scope
/// router at a fixed time; the ControlPlane calls engage_victim /
/// disengage_victim at its apply events. While any victim is engaged a
/// keep-alive loop refreshes the engaged ATRs ("Pushback Continue?").
///
/// This file is control-plane code: the maficlint `seams` rule checks it
/// never names FlowTables, the verdict pipeline or a FilterEngine —
/// engines are reached only through core::DefenseActuator.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/actuator.hpp"
#include "pushback/atr_identifier.hpp"
#include "sim/simulator.hpp"

namespace mafic::pushback {

class PushbackCoordinator {
 public:
  struct Config {
    double refresh_interval = 0.25; ///< keep-alive period
  };

  using TriggerCallback = std::function<void(
      double time, const std::vector<AtrScore>& atrs)>;

  PushbackCoordinator(sim::Simulator* sim, Config cfg);
  ~PushbackCoordinator();

  PushbackCoordinator(const PushbackCoordinator&) = delete;
  PushbackCoordinator& operator=(const PushbackCoordinator&) = delete;

  /// Registers a defense actuator living at `router` (e.g. a MaficFilter
  /// on one of its ingress links). Multiple actuators per router are fine.
  void register_actuator(sim::NodeId router, core::DefenseActuator* a);

  /// First-engagement notification (used by the ledger to set the
  /// trigger time).
  void set_trigger_callback(TriggerCallback cb) {
    on_trigger_ = std::move(cb);
  }

  bool triggered() const noexcept { return triggered_; }

  /// Activates every actuator registered at `router` with `victims`, in
  /// registration order. A router without actuators is a no-op.
  void activate_router(sim::NodeId router, const core::VictimSet& victims);

  /// --- Multi-victim actuation (asynchronous control-plane path) ---
  ///
  /// The ControlPlane runs detection off-path and calls these at its
  /// apply event (the control delay has already elapsed), so activation
  /// is immediate. Engaging activates actuators at any newly-identified
  /// ATRs with the union of victims every engaged response wants at that
  /// router; disengaging deactivates exclusive routers outright and
  /// RETARGETS shared ones (engines cannot shrink their victim set
  /// without a flush, so shared routers are flushed and re-activated
  /// with the remaining union).

  /// Engages or extends the response for one victim. No-op when `atrs`
  /// is empty; already-engaged ATRs are skipped. Fires the trigger
  /// callback on the first engagement overall.
  void engage_victim(util::Addr victim, const std::vector<AtrScore>& atrs);

  /// Tears down one victim's response (detector cleared, unlatched).
  void disengage_victim(util::Addr victim);

  /// Sorted, deduplicated union of all engaged responses' ATRs.
  std::vector<sim::NodeId> engaged_atrs() const;

  /// Shared-router flush+re-activate cycles performed by disengage.
  std::uint64_t retargets() const noexcept { return retargets_; }

  /// Manually ends every engaged response and stops the keep-alive loop.
  void cancel();

 private:
  void refresh_tick();
  /// Union of victim addresses every engaged response wants defended
  /// at `router` (address-ordered map walk: deterministic).
  core::VictimSet victims_for_router(sim::NodeId router) const;
  void start_refresh_loop();

  sim::Simulator* sim_;
  Config cfg_;

  /// Ordered by router id: control-plane only (registration + activation
  /// lookups), and any future walk over all actuators is deterministic.
  std::map<sim::NodeId, std::vector<core::DefenseActuator*>> actuators_;
  /// Engaged ATRs (sorted) per engaged victim; a victim is present only
  /// while engaged, so its list is never empty.
  std::map<util::Addr, std::vector<sim::NodeId>> responses_;
  std::uint64_t retargets_ = 0;

  bool triggered_ = false;
  bool refreshing_ = false;
  sim::EventId refresh_event_ = sim::kInvalidEvent;
  TriggerCallback on_trigger_;
};

}  // namespace mafic::pushback
