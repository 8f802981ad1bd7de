#pragma once

/// \file engine_seams.hpp
/// The three seams that make the MAFIC decision engine simulator-agnostic.
///
/// FilterEngine (filter_engine.hpp) owns the Fig. 2 control flow — flow
/// tables, probation windows, the Pd coin and the decision rule — but not
/// the environment it runs in. Everything environmental reaches it through
/// these interfaces:
///
///   Clock        — "what time is it" (sim clock, shard-local clock, TSC…)
///   TimerService — arm/cancel/move the per-probation probe and decision
///                  timers (the simulator's wheel, or a shard-private
///                  wheel driven by the datapath thread)
///   ProbeSink    — emit the duplicate-ACK probe toward a flow's claimed
///                  source (a wired Prober in simulation, a raw socket in
///                  a deployment, a counter in benches)
///
/// The discrete-event adapter is core::ShardedMaficFilter; the
/// standalone shard runtime is core::EngineRuntime
/// (standalone_runtime.hpp). Both drive the *same* engine object, which
/// is what lets the fixed-seed classification goldens pin either.
///
/// Journaled (speculative-threaded) seams: when several engines run
/// their sub-spans of one burst on worker threads, the seam
/// implementations must not touch shared state mid-burst. The buffering
/// variants in journal_seams.hpp record every seam side effect instead,
/// tagged with the packet's original span index via the BatchSequencer
/// hook below, and the driving thread replays the merged journals in
/// span order afterwards — reproducing exactly the seam call sequence a
/// serial in-order walk would have made.

#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/unique_function.hpp"

namespace mafic::core {

/// Timer callback type shared with the hierarchical wheel: inline-storable,
/// so arming a probation timer performs no heap allocation.
using TimerFn = util::UniqueFunction<void()>;

/// Read-only time source.
///
/// Contract:
///  * pre:  none — now() must be callable at any point in the engine's
///          lifetime, including from inside timer callbacks.
///  * post: monotonically non-decreasing within one engine's lifetime;
///          two consecutive calls may return the same value. The engine
///          never compares times across engines, so shard-local clocks
///          need no mutual synchronization.
///  * The engine samples now() on the inspection path; implementations
///    should be O(1) and allocation-free.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double now() const noexcept = 0;
};

/// O(1)-amortized one-shot timers at absolute times. Semantics follow
/// sim::TimerWheel.
///
/// Contract:
///  * schedule_at(t, fn) —
///    pre:  fn non-empty. t may lie in the past; implementations clamp
///          it to now (the timer then fires on the next service step).
///    post: returns an id != sim::kInvalidTimer that stays valid until
///          the timer fires or is cancelled. fn runs at the first tick
///          boundary >= t, at most once, with Clock::now() already
///          advanced to (at least) the fire time. Timers landing on the
///          same tick fire in schedule order — the engine relies on
///          this for cross-run determinism. Scheduling must not invoke
///          fn inline.
///  * cancel(id) —
///    post: true iff a pending timer was revoked; its fn never runs.
///          Stale/foreign ids return false and are harmless (the engine
///          cancels defensively from eviction hooks).
///  * reschedule(id, t) —
///    post: true iff the pending timer now fires at (the tick of) t,
///          keeping its id; false for stale ids, after which the caller
///          must schedule_at afresh. Never loses or duplicates a fire.
///  * All three are called from the datapath; implementations should be
///    O(1) amortized and allocation-free in steady state (TimerFn's
///    inline storage holds the engine's small captures).
class TimerService {
 public:
  virtual ~TimerService() = default;
  virtual sim::TimerId schedule_at(double t, TimerFn fn) = 0;
  virtual bool cancel(sim::TimerId id) = 0;
  virtual bool reschedule(sim::TimerId id, double t) = 0;
};

/// Emits the duplicate-ACK probe train toward `flow`'s claimed source.
///
/// Contract:
///  * pre:  called at most once per probation (the engine latches
///          probe_sent), from a TimerService callback — i.e. never
///          re-entrantly from inside inspect().
///  * post: the implementation owns delivery: crafting the
///          cfg.probe_dup_acks ACKs, their spacing, and any further
///          scheduling. It must not call back into the engine
///          synchronously. `flow` is passed by reference and is only
///          valid for the duration of the call — copy what you keep.
///  * Ordering: implementations that merge several engines onto one
///    wire (ShardedMaficFilter's per-shard sinks) preserve call order;
///    the engine in turn requests probes in admission-arrival order
///    when driven through span-ordered batches.
class ProbeSink {
 public:
  virtual ~ProbeSink() = default;
  virtual void send_probe(const sim::FlowLabel& flow) = 0;
};

/// Per-packet sequence hook for the journaled batch path
/// (FilterEngine::inspect_batch_keyed): the engine announces a packet's
/// original span index immediately before inspecting it, so buffering
/// seam implementations can tag the side effects that packet produces.
/// begin_packet is called with strictly increasing indices within one
/// batch; implementations need no synchronization (one sequencer is
/// driven by exactly one thread at a time).
class BatchSequencer {
 public:
  virtual ~BatchSequencer() = default;
  virtual void begin_packet(std::uint32_t span_index) = 0;
};

}  // namespace mafic::core
