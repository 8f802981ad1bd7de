#include "pushback/coordinator.hpp"

#include <algorithm>

namespace mafic::pushback {

PushbackCoordinator::PushbackCoordinator(sim::Simulator* sim, Config cfg)
    : sim_(sim), cfg_(cfg) {}

PushbackCoordinator::~PushbackCoordinator() {
  if (refresh_event_ != sim::kInvalidEvent) sim_->cancel(refresh_event_);
}

void PushbackCoordinator::register_actuator(sim::NodeId router,
                                            core::DefenseActuator* a) {
  actuators_[router].push_back(a);
}

void PushbackCoordinator::activate_router(sim::NodeId router,
                                          const core::VictimSet& victims) {
  const auto it = actuators_.find(router);
  if (it == actuators_.end()) return;
  for (core::DefenseActuator* a : it->second) a->activate(victims);
}

void PushbackCoordinator::start_refresh_loop() {
  if (refreshing_) return;
  refreshing_ = true;
  refresh_event_ =
      sim_->schedule(cfg_.refresh_interval, [this] { refresh_tick(); });
}

core::VictimSet PushbackCoordinator::victims_for_router(
    sim::NodeId router) const {
  core::VictimSet set;
  for (const auto& [victim, atrs] : responses_) {
    if (std::binary_search(atrs.begin(), atrs.end(), router)) {
      set.insert(victim);
    }
  }
  return set;
}

void PushbackCoordinator::engage_victim(util::Addr victim,
                                        const std::vector<AtrScore>& atrs) {
  if (atrs.empty()) return;
  auto& engaged = responses_[victim];

  std::vector<sim::NodeId> fresh;
  for (const auto& score : atrs) {
    const auto it =
        std::lower_bound(engaged.begin(), engaged.end(), score.router);
    if (it != engaged.end() && *it == score.router) continue;
    engaged.insert(it, score.router);
    fresh.push_back(score.router);
  }

  // Activate (or extend: engine activation is additive, so an actuator
  // already defending another victim just gains this one) every router
  // that is new FOR THIS response, with the full per-router union.
  for (const sim::NodeId router : fresh) {
    activate_router(router, victims_for_router(router));
  }

  if (!triggered_) {
    triggered_ = true;
    if (on_trigger_) on_trigger_(sim_->now(), atrs);
  }
  start_refresh_loop();
}

void PushbackCoordinator::disengage_victim(util::Addr victim) {
  const auto rit = responses_.find(victim);
  if (rit == responses_.end()) return;
  const std::vector<sim::NodeId> routers = std::move(rit->second);
  responses_.erase(rit);

  for (const sim::NodeId router : routers) {
    const auto it = actuators_.find(router);
    if (it == actuators_.end()) continue;
    const core::VictimSet remaining = victims_for_router(router);
    if (remaining.empty()) {
      for (core::DefenseActuator* a : it->second) a->deactivate();
    } else {
      // Shared router: other victims still need it. Engines only grow
      // their victim set while active, so shrinking is a flush +
      // re-activate with the remaining union.
      for (core::DefenseActuator* a : it->second) {
        a->deactivate();
        a->activate(remaining);
      }
      ++retargets_;
    }
  }
}

std::vector<sim::NodeId> PushbackCoordinator::engaged_atrs() const {
  std::vector<sim::NodeId> out;
  for (const auto& [victim, atrs] : responses_) {
    out.insert(out.end(), atrs.begin(), atrs.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void PushbackCoordinator::refresh_tick() {
  refresh_event_ = sim::kInvalidEvent;
  if (!refreshing_) return;
  // "Engaged" already encodes the keep-alive decision (the control plane
  // disengages on clear when unlatched), so every engaged router gets
  // refreshed — once per tick, however many victims share it.
  for (const sim::NodeId router : engaged_atrs()) {
    const auto it = actuators_.find(router);
    if (it == actuators_.end()) continue;
    for (core::DefenseActuator* a : it->second) a->refresh();
  }
  refresh_event_ =
      sim_->schedule(cfg_.refresh_interval, [this] { refresh_tick(); });
}

void PushbackCoordinator::cancel() {
  refreshing_ = false;
  if (refresh_event_ != sim::kInvalidEvent) {
    sim_->cancel(refresh_event_);
    refresh_event_ = sim::kInvalidEvent;
  }
  for (const sim::NodeId router : engaged_atrs()) {
    const auto it = actuators_.find(router);
    if (it == actuators_.end()) continue;
    for (core::DefenseActuator* a : it->second) a->deactivate();
  }
  responses_.clear();
}

}  // namespace mafic::pushback
