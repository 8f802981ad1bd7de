#include "sim/simulator.hpp"

#include <limits>

namespace mafic::sim {

Simulator::Next Simulator::peek_next() {
  Next next;
  if (!queue_.empty()) {
    const EventQueue::Head head = queue_.peek();
    next = Next{head.time, true, true, head.batchable};
  }
  // Queue events win ties so exact-time events (packet arrivals) precede
  // quantized timers that landed on the same instant.
  if (!wheel_.empty()) {
    const SimTime tw = wheel_.next_time();
    if (!next.any || tw < next.time) next = Next{tw, true, false, false};
  }
  return next;
}

void Simulator::flush_drain() {
  // Loop: a drain that forwards packets may (in zero-delay topologies)
  // re-register deferred work at the same instant.
  while (drain_ != nullptr && drain_->pending()) drain_->drain();
}

std::size_t Simulator::run_through(SimTime limit) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_) {
    Next next = peek_next();
    // Deferred work was registered at now_. It may keep accumulating only
    // while the very next thing to run is another batchable queue event at
    // this same instant; any other event (foreign queue event, wheel
    // timer, clock advance) must observe the deferred effects first,
    // exactly as the serial schedule would have applied them.
    if (drain_ != nullptr && drain_->pending() &&
        !(next.from_queue && next.batchable && next.time <= now_)) {
      drain_->drain();
      next = peek_next();  // the drain may have scheduled new events
    }
    if (!next.any || next.time > limit) break;
    if (next.from_queue) {
      auto ev = queue_.pop();
      if (ev.time > now_) now_ = ev.time;
      ev.fn();
    } else {
      auto timer = wheel_.pop();
      if (timer.time > now_) now_ = timer.time;
      timer.fn();
    }
    ++n;
  }
  flush_drain();  // deferred work survives stop(); the clock has not moved
  processed_ += n;
  return n;
}

std::size_t Simulator::run() {
  return run_through(std::numeric_limits<SimTime>::infinity());
}

std::size_t Simulator::run_until(SimTime t) {
  const std::size_t n = run_through(t);
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

}  // namespace mafic::sim
