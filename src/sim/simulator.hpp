#pragma once

/// \file simulator.hpp
/// The discrete-event simulation kernel. Components hold a Simulator* and
/// schedule work with schedule()/schedule_at(); nothing in the library uses
/// global state, so independent simulations can coexist in one process.
///
/// Two event sources drive the clock:
///  * the EventQueue (a heap of (time, id) keys over a callback slot
///    arena) — exact-time, one-shot events (packet arrivals,
///    transmissions, experiment scripting);
///  * the hierarchical TimerWheel — high-churn per-flow timers (probation
///    probes/decisions, keep-alives) with O(1) schedule/cancel/reschedule,
///    quantized to the wheel resolution.
/// The run loop interleaves both in time order; at equal times, queue
/// events fire before wheel timers (deterministic regardless of internals).
///
/// Tick batching: a TickDrain hook lets a fleet-wide burst scheduler
/// (core::FleetBurstScheduler) accumulate same-instant burst deliveries
/// across events and flush them as one batch. Delivery events that defer
/// their side effects into the drain are scheduled with
/// schedule_batchable_at; the run loop flushes the drain before executing
/// ANY other event (or wheel timer, or advancing the clock), so deferred
/// effects land exactly where the undeferred events would have put them —
/// batching coalesces only runs of consecutive same-time batchable
/// events and can never reorder work relative to the serial schedule.

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/types.hpp"

namespace mafic::sim {

/// Deferred-work hook for fleet-wide tick batching (see file comment).
/// pending() must be cheap; drain() runs every deferred effect at the
/// current simulation time and leaves pending() false. drain() may
/// schedule new events (at now or later) but must not re-defer work.
class TickDrain {
 public:
  virtual ~TickDrain() = default;
  virtual bool pending() const noexcept = 0;
  virtual void drain() = 0;
};

class Simulator {
 public:
  explicit Simulator(SimTime timer_resolution = 0.0005)
      : wheel_(timer_resolution) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` after `delay` seconds (clamped to now for negatives).
  EventId schedule(SimTime delay, EventFn fn) {
    return schedule_at(delay > 0 ? now_ + delay : now_, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  EventId schedule_at(SimTime t, EventFn fn) {
    return queue_.push(t < now_ ? now_ : t, std::move(fn));
  }

  /// Cancels a pending event; safe to call with stale ids.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Schedules a batchable burst-delivery event at absolute time `t`:
  /// the installed TickDrain stays un-flushed across consecutive
  /// same-time batchable events, letting their deferred work coalesce
  /// into one drain. Only for events that defer every externally visible
  /// side effect into the drain (LinkTransmitter burst deliveries whose
  /// filter participates in fleet batching).
  EventId schedule_batchable_at(SimTime t, EventFn fn) {
    return queue_.push(t < now_ ? now_ : t, std::move(fn),
                       /*batchable=*/true);
  }

  /// Installs (or clears, with nullptr) the tick-batching drain hook.
  void set_tick_drain(TickDrain* drain) noexcept { drain_ = drain; }
  TickDrain* tick_drain() const noexcept { return drain_; }

  /// Schedules `fn` on the timer wheel after `delay` seconds. Fires at the
  /// first tick boundary at or after the nominal time. Prefer this over
  /// schedule() for per-flow timers that are frequently cancelled or
  /// rescheduled — all three operations are O(1) on the wheel.
  TimerId schedule_timer(SimTime delay, TimerFn fn) {
    return wheel_.schedule_at(delay > 0 ? now_ + delay : now_,
                              std::move(fn));
  }

  /// Schedules `fn` on the timer wheel at absolute time `t`.
  TimerId schedule_timer_at(SimTime t, TimerFn fn) {
    return wheel_.schedule_at(t < now_ ? now_ : t, std::move(fn));
  }

  /// Cancels a pending wheel timer; safe to call with stale ids.
  bool cancel_timer(TimerId id) { return wheel_.cancel(id); }

  /// Moves a pending wheel timer to absolute time `t`, keeping its id.
  /// Returns false when the id is stale (fire a fresh schedule_timer_at).
  bool reschedule_timer(TimerId id, SimTime t) {
    return wheel_.reschedule(id, t < now_ ? now_ : t);
  }

  /// Runs until both event sources drain or stop() is called. Returns the
  /// number of events processed.
  std::size_t run();

  /// Processes every event with time <= t, then advances the clock to t.
  std::size_t run_until(SimTime t);

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  bool pending() const noexcept {
    return !queue_.empty() || !wheel_.empty();
  }
  std::size_t pending_count() const noexcept {
    return queue_.size() + wheel_.size();
  }
  std::uint64_t events_processed() const noexcept { return processed_; }

  const TimerWheel& timer_wheel() const noexcept { return wheel_; }

 private:
  /// The earliest pending event across both sources.
  struct Next {
    SimTime time = 0.0;
    bool any = false;         ///< false when both sources are empty
    bool from_queue = false;  ///< else the wheel's next timer
    bool batchable = false;   ///< a batchable queue event
  };
  /// Peeks each source once; queue events win ties.
  Next peek_next();
  /// Shared body of run()/run_until(): runs events with time <= limit in
  /// order, flushing the tick drain wherever the serial schedule needs its
  /// deferred effects applied.
  std::size_t run_through(SimTime limit);
  /// Unconditionally flushes any deferred tick work (loop boundaries).
  void flush_drain();

  EventQueue queue_;
  TimerWheel wheel_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  TickDrain* drain_ = nullptr;
};

}  // namespace mafic::sim
