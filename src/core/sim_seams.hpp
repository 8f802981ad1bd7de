#pragma once

/// \file sim_seams.hpp
/// Discrete-event-simulator implementations of the engine seams
/// (engine_seams.hpp), used by the sim adapter (ShardedMaficFilter):
///   SimClock        -> Simulator::now()
///   SimTimerService -> the simulator's shared hierarchical timer wheel
/// The ProbeSink binding is Prober (prober.hpp), which puts real packets
/// on the ATR's wire. Also home to the EngineVerdict ->
/// InlineFilter::Decision mapping.

#include "core/engine_seams.hpp"
#include "core/filter_engine.hpp"
#include "sim/connector.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {

/// Maps an engine verdict onto the sim datapath's drop vocabulary; the
/// serial and threaded burst paths share this one mapping so ledger drop
/// accounting can never diverge between them.
inline sim::InlineFilter::Decision to_decision(EngineVerdict v) noexcept {
  switch (v) {
    case EngineVerdict::kForward:
      return sim::InlineFilter::Decision::forward();
    case EngineVerdict::kDropProbation:
      return sim::InlineFilter::Decision::drop(
          sim::DropReason::kDefenseProbe);
    case EngineVerdict::kDropPdt:
      return sim::InlineFilter::Decision::drop(sim::DropReason::kDefensePdt);
  }
  return sim::InlineFilter::Decision::forward();
}

/// Clock seam over the simulation clock.
class SimClock final : public Clock {
 public:
  explicit SimClock(sim::Simulator* sim) noexcept : sim_(sim) {}
  double now() const noexcept override { return sim_->now(); }

 private:
  sim::Simulator* sim_;
};

/// TimerService seam over the simulator's hierarchical timer wheel.
class SimTimerService final : public TimerService {
 public:
  explicit SimTimerService(sim::Simulator* sim) noexcept : sim_(sim) {}
  sim::TimerId schedule_at(double t, TimerFn fn) override {
    return sim_->schedule_timer_at(t, std::move(fn));
  }
  bool cancel(sim::TimerId id) override { return sim_->cancel_timer(id); }
  bool reschedule(sim::TimerId id, double t) override {
    return sim_->reschedule_timer(id, t);
  }

 private:
  sim::Simulator* sim_;
};

}  // namespace mafic::core
