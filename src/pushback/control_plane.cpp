#include "pushback/control_plane.hpp"

#include <algorithm>

#include "pushback/atr_identifier.hpp"

namespace mafic::pushback {

ControlPlane::ControlPlane(sim::Simulator* sim,
                           PushbackCoordinator* coordinator, Config cfg)
    : sim_(sim), coordinator_(coordinator), cfg_(cfg),
      pipeline_(cfg.features) {}

void ControlPlane::protect(sim::NodeId victim_router,
                           util::Addr victim_addr) {
  VictimStatus st;
  st.victim = victim_addr;
  st.router = victim_router;
  statuses_.push_back(st);
}

void ControlPlane::watch(sketch::TrafficMonitor& monitor) {
  monitor.subscribe([this](const sketch::TrafficMatrixSnapshot& snap) {
    ingest(snap);
  });
}

void ControlPlane::ingest(const sketch::TrafficMatrixSnapshot& snap) {
  ++epochs_;
  if (statuses_.empty()) return;

  // 1. Freeze the control snapshot: matrix copy + counter samples. After
  // this point detection touches nothing live.
  sketch::ControlSnapshot cs;
  cs.matrix = snap;
  cs.victims.reserve(statuses_.size());
  for (const auto& st : statuses_) {
    sketch::VictimCounterSample sample;
    sample.victim = st.victim;
    sample.last_hop_router = st.router;
    cs.victims.push_back(sample);
  }
  if (counter_source_) counter_source_(cs.victims);

  // 2. Detection: pure function of the frozen snapshot (plus the
  // pipeline's own state). With a pool attached it runs as a single
  // task; submit + wait inside this epoch callback means the batch is
  // never left in flight to collide with classify bursts, and the join
  // is the happens-before edge back to the sim thread. Pooled and
  // inline execution are bit-identical by construction.
  std::vector<VictimDecision> decisions;
  std::vector<std::vector<AtrScore>> atr_sets(statuses_.size());
  const auto detect = [&] {
    decisions = pipeline_.step(cs);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      if (decisions[i].alarming) {
        atr_sets[i] = identify_atrs(cs.matrix, decisions[i].router, cfg_.atr);
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->submit([&detect](std::size_t) { detect(); }, 1);
    pool_->wait();
    ++pooled_steps_;
  } else {
    detect();
  }

  // 3. Fold results into the statuses and collect pending transitions.
  std::vector<Action> actions;
  for (std::size_t i = 0; i < statuses_.size(); ++i) {
    auto& st = statuses_[i];
    const auto& dec = decisions[i];
    st.alarming = dec.alarming;
    st.features = dec.features;
    if (dec.raised) ++st.alarms;

    if (dec.alarming) {
      // Engage any ATRs not yet applied for this victim. Re-evaluated
      // every alarming epoch so late-ramping attack sources are caught.
      std::vector<AtrScore> fresh;
      for (const auto& score : atr_sets[i]) {
        if (!std::binary_search(st.atrs.begin(), st.atrs.end(),
                                score.router)) {
          fresh.push_back(score);
        }
      }
      if (!fresh.empty()) {
        Action a;
        a.index = i;
        a.engage = true;
        a.atrs = std::move(fresh);
        // Record as applied now: the apply event is unconditional once
        // scheduled, and control_delay < epoch length (Experiment::setup
        // rejects anything else) keeps it ordered before the next
        // epoch's decisions.
        for (const auto& score : a.atrs) {
          st.atrs.insert(std::lower_bound(st.atrs.begin(), st.atrs.end(),
                                          score.router),
                         score.router);
        }
        actions.push_back(std::move(a));
      }
    } else if (dec.cleared && !cfg_.latch && st.engaged) {
      Action a;
      a.index = i;
      a.disengage = true;
      actions.push_back(std::move(a));
      st.atrs.clear();
    }
  }

  // 4. One apply event per epoch with pending actions, a fixed control
  // delay out — the deterministic stand-in for victim->ATR signaling.
  if (!actions.empty()) {
    sim_->schedule(cfg_.control_delay,
                   [this, acts = std::move(actions)] { apply(acts); });
  }
}

void ControlPlane::apply(const std::vector<Action>& actions) {
  ++apply_events_;
  for (const auto& a : actions) {
    auto& st = statuses_[a.index];
    if (a.engage) {
      coordinator_->engage_victim(st.victim, a.atrs);
      st.engaged = true;
      if (st.trigger_time < 0.0) st.trigger_time = sim_->now();
    } else if (a.disengage) {
      coordinator_->disengage_victim(st.victim);
      st.engaged = false;
      st.clear_time = sim_->now();
    }
  }
}

}  // namespace mafic::pushback
