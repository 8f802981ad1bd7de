#pragma once

/// \file sharded_mafic_filter.hpp
/// The MAFIC datapath inside the discrete-event simulator: the one sim
/// adapter, mounting a core::ShardedFilter (N engines partitioned by
/// flow-key hash; N = 1 is the plain single-engine filter) on an ingress
/// link of an Attack-Transit Router through these seams —
///   Clock        -> the simulation clock (one SimClock, all shards)
///   TimerService -> the simulator's shared hierarchical wheel (the sim
///                   is single-threaded, so shards can share it; a
///                   deployed shard owns a private wheel instead)
///   ProbeSink    -> one ShardProbeSink per shard, each forwarding to a
///                   shared Prober that crafts real duplicate-ACK packets
///                   out of the ATR node. Because bursts are classified
///                   in span order (below), every shard schedules its
///                   probe timers in packet-arrival order on the shared
///                   wheel, so the per-shard probe streams merge onto the
///                   wire in arrival order — exactly as one engine would
///                   emit them. The sinks keep per-shard counts.
///
/// Placement: the adapter serves two mount points. At the HEAD of the
/// ingress uplink (SimplexLink::add_head_filter), before the link queue,
/// it is the paper's section IV ns-2 placement, which the figure benches
/// use (Experiment with num_shards = 0 mounts one shard there). At the
/// RECEIVING end of the uplink (SimplexLink::add_tail_tap) — the ATR
/// router's ingress side — the link's burst mode delivers coalesced
/// departure spans; every scaled strategy mounts it there. Bursts route
/// through inspect_burst; with no worker pool they run the serial
/// in-order walk (ShardedFilter::inspect_batch, shared partition pass +
/// windowed prefetch + sequential classification by home engine).
///
/// Speculative threaded mode (pool != nullptr): the burst span is fanned
/// out to a persistent ShardWorkerPool, one task per shard. The
/// partition is worker-side and cooperative: tasks atomically claim span
/// chunks and run the shared gate/hash/home-shard routine
/// (ShardedFilter::partition_span_range) over them — each packet hashed
/// exactly once, in parallel, so the submitting thread's fan-out cost
/// does not scale with span size — then barrier and gather their own
/// sub-spans (stable within-shard arrival order) off the partition
/// arrays. Each worker then runs its shard's
/// FilterEngine::inspect_batch_keyed against
/// shard-local store and wheel slots — recording every timer schedule,
/// cancel, probe request and callback into that shard's ShardSeamJournal
/// instead of touching the shared wheel, prober or ledger. After the
/// join, the sim thread merges the journals deterministically (a single
/// forward pass interleaving shards by original span index) and replays
/// them against the real seams. Because each engine sees exactly the
/// packets, in exactly the order, that the serial walk would have fed
/// it, and the replay reproduces the serial seam call sequence, the
/// verdict stream, timer order, probe order and every per-shard counter
/// are bit-identical to the serial path regardless of worker count
/// (test_core_threaded_sim pins this; the TSan CI job race-checks the
/// fan-out/join and journal handoff).
///
/// Scalar equivalence: a flow's Pd coins depend only on (coin_seed, flow
/// key, packet uid), so every per-flow
/// quantity this adapter computes — admission times, half-window counts,
/// probe schedules, NFT/PDT verdicts — is identical for num_shards = 1
/// and num_shards = N, because all cross-flow coupling is gone: flows
/// never share tables, timers, RTT estimates or coin streams.
/// test_core_sharded_sim pins this end-to-end at fixed seeds; the
/// remaining caveat is capacity (per-shard tables come from the config
/// verbatim, so N shards hold N times the flows — keep working sets
/// under the single-shard bounds when comparing).
///
/// Fleet mode (set_fleet, threaded only): instead of fanning each burst
/// out on its own, recv_burst moves the span into a held buffer and
/// enqueues this filter with the FleetBurstScheduler; the simulator's
/// tick drain later runs fleet_prepare (partition-array sizing + journal
/// open, one cooperative pool Task per shard) for every same-instant
/// filter, ONE shared pool submission, then fleet_complete (journal
/// replay + finish_burst) in arrival order — see
/// fleet_burst_scheduler.hpp for the determinism argument. Same-tick
/// spans to the SAME filter (impossible through a real LinkTransmitter,
/// whose trains serialize for non-zero time) concatenate into one held
/// span at the first span's arrival position.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/actuator.hpp"
#include "core/address_policy.hpp"
#include "core/config.hpp"
#include "core/journal_seams.hpp"
#include "core/prober.hpp"
#include "core/shard_worker_pool.hpp"
#include "core/sharded_filter.hpp"
#include "core/sim_seams.hpp"
#include "sim/connector.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {

class FleetBurstScheduler;

class ShardedMaficFilter final : public sim::InlineFilter,
                                 public DefenseActuator {
 public:
  /// `num_shards` rounds up to a power of two (see
  /// ShardedFilter::usable_shard_count). `pool` (non-owning, may be
  /// shared across filters, must outlive this one) switches bursts onto
  /// the speculative threaded path; nullptr keeps the serial in-order
  /// walk.
  ShardedMaficFilter(sim::Simulator* sim, sim::PacketFactory* factory,
                     sim::Node* atr_node, std::size_t num_shards,
                     MaficConfig cfg, const AddressPolicy* policy,
                     ShardWorkerPool* pool = nullptr);

  // --- DefenseActuator ---
  void activate(const VictimSet& victims) override {
    sharded_.activate(victims);
  }
  void refresh() override { sharded_.refresh(); }
  void deactivate() override { sharded_.deactivate(); }
  /// Weighted per-victim SFT quotas, fanned out to every shard engine.
  void set_victim_weights(
      const std::vector<std::pair<util::Addr, double>>& w) {
    sharded_.set_victim_weights(w);
  }
  bool active() const noexcept override { return sharded_.active(); }

  /// Fans the callback out to every shard engine. In threaded mode the
  /// installed callback is a journaling wrapper: invocations from worker
  /// threads are recorded and replayed to `cb` on the sim thread in span
  /// order, so `cb` may touch shared state (the ledger does). Callbacks
  /// must not mutate the filter itself (activate/deactivate) mid-burst.
  void set_offered_callback(FilterEngine::OfferedCallback cb);
  void set_classification_callback(FilterEngine::ClassificationCallback cb);

  /// Switches bursts onto the fleet-batched path (threaded mode only;
  /// asserts otherwise). The scheduler is non-owning and shared across
  /// the experiment's filters; it must be installed as the simulator's
  /// tick drain and its pool must be this filter's pool.
  void set_fleet(FleetBurstScheduler* fleet);

  /// Fleet phase 1 (scheduler only): sizes the held span's partition
  /// arrays, opens the shard journals, and appends one cooperative pool
  /// task per shard. The task array is owned by the scheduler and stays
  /// alive through the pool's wait().
  void fleet_prepare(std::vector<ShardWorkerPool::Task>& tasks);

  /// Fleet phase 3 (scheduler only): replays the shard journals in span
  /// order, applies the verdicts, and forwards the surviving packets
  /// downstream (InlineFilter::finish_burst). Clears the held span.
  void fleet_complete();

  std::size_t num_shards() const noexcept { return sharded_.shard_count(); }
  bool threaded() const noexcept { return pool_ != nullptr; }
  bool fleet_mode() const noexcept { return fleet_ != nullptr; }
  ShardedFilter& sharded() noexcept { return sharded_; }
  const ShardedFilter& sharded() const noexcept { return sharded_; }
  const FilterEngine& engine(std::size_t i) const noexcept {
    return sharded_.engine(i);
  }
  const Prober& prober() const noexcept { return prober_; }
  sim::NodeId atr_node_id() const noexcept;

  /// Engine stats summed across shards.
  FilterEngine::Stats stats() const { return sharded_.aggregate_stats(); }
  /// Flow-table stats summed across shards.
  FlowTables::Stats tables_stats() const;
  /// Per-victim decision tally for `victim`, summed across shards.
  FilterEngine::VictimStats victim_stats_for(util::Addr victim) const;
  /// Probe requests shard `i`'s engine issued.
  std::uint64_t shard_probes(std::size_t i) const noexcept {
    return shard_sinks_[i].requested;
  }
  /// Largest burst span inspect_burst has received (diagnostics).
  std::size_t max_burst_seen() const noexcept { return max_burst_; }
  /// Bursts that took the speculative threaded path (diagnostics; stays
  /// zero without a pool).
  std::uint64_t threaded_bursts() const noexcept { return threaded_bursts_; }
  /// Spans deferred into the fleet tick drain (diagnostics; stays zero
  /// outside fleet mode).
  std::uint64_t fleet_bursts() const noexcept { return fleet_bursts_; }

  /// Fleet mode defers the span into the tick drain; otherwise the
  /// inherited inspect-then-finish path runs.
  void recv_burst(sim::PacketPtr* pkts, std::size_t n) override;

 protected:
  Decision inspect(sim::Packet& p) override;
  void inspect_burst(sim::PacketPtr* pkts, std::size_t n,
                     Decision* out) override;

 private:
  /// Per-shard ProbeSink: counts the shard's requests, then forwards to
  /// the shared Prober. Span-ordered classification (serial walk or
  /// journal replay alike) makes the shared wheel fire probe timers in
  /// admission-arrival order, so the merged probe stream hits the wire
  /// in arrival order.
  struct ShardProbeSink final : ProbeSink {
    Prober* wire = nullptr;
    std::uint64_t requested = 0;
    void send_probe(const sim::FlowLabel& flow) override {
      ++requested;
      wire->send_probe(flow);
    }
  };

  /// One shard's sub-span staging (reused across bursts).
  struct SubSpan {
    std::vector<const sim::Packet*> pkts;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> span_idx;  ///< original position in span
    std::vector<EngineVerdict> verdicts;
    void clear() {
      pkts.clear();
      keys.clear();
      span_idx.clear();
      verdicts.clear();
    }
  };

  void inspect_burst_threaded(std::size_t n, Decision* out);
  /// Phase 1 of the threaded walk: size the shared partition arrays,
  /// stash `out` for the workers' Decision scatter, arm the chunk-claim
  /// counters and open the shard journals. The partition itself is
  /// worker-side (run_shard), so this phase costs the submitting thread
  /// nothing per packet beyond amortised resizes.
  void prepare_shards(std::size_t n, Decision* out);
  /// Phase 3: close the journals and replay the seam ops via a K-way
  /// span-index merge of the per-shard op streams (apply_op, exact
  /// serial order). Per-packet work already happened worker-side — the
  /// verdict scatter in run_shard — so this walk scales with the number
  /// of seam ops, not the span size.
  void complete_shards(std::size_t n, Decision* out);
  /// Worker-side body: one shard's sub-span through the journaled batch.
  void run_shard(std::size_t s);
  /// Pool-task trampoline for the fleet scheduler's heterogeneous batch.
  static void run_shard_task(void* ctx, std::size_t arg);
  /// Replays one journaled op (sim thread, span-merge order).
  void apply_op(std::size_t s, const ShardSeamJournal::Op& op);

  sim::Node* atr_node_;
  SimClock clock_;
  SimTimerService timers_;
  Prober prober_;
  std::vector<ShardProbeSink> shard_sinks_;  ///< one per shard, stable
  ShardWorkerPool* pool_;  ///< non-owning; nullptr = serial bursts
  FleetBurstScheduler* fleet_ = nullptr;  ///< non-owning; see set_fleet
  /// Threaded mode only: shard i's buffering seams (stable addresses).
  std::vector<std::unique_ptr<ShardSeamJournal>> journals_;
  ShardedFilter sharded_;

  /// User callbacks (threaded mode installs journaling wrappers on the
  /// engines and replays into these on the sim thread).
  FilterEngine::OfferedCallback user_offered_;
  FilterEngine::ClassificationCallback user_classified_;

  // inspect_burst scratch (reused; steady state allocates nothing).
  std::vector<const sim::Packet*> batch_ptrs_;
  std::vector<EngineVerdict> batch_verdicts_;
  ShardedFilter::SpanPartition part_;
  /// Cooperative worker-side partition state (see run_shard): tasks
  /// atomically claim span chunks until none remain, then barrier on
  /// chunks_done_ before gathering their sub-spans. Re-armed per burst
  /// by prepare_shards; the pool's join fences the final reads.
  std::uint32_t chunk_total_ = 0;
  std::atomic<std::uint32_t> next_chunk_{0};
  std::atomic<std::uint32_t> chunks_done_{0};
  /// Destination of the workers' per-packet Decision scatter for the
  /// burst in flight (caller's array or held_decisions_). Set by
  /// prepare_shards; workers write disjoint span indices.
  Decision* cur_out_ = nullptr;
  std::vector<SubSpan> sub_;
  std::vector<std::size_t> op_cursor_;
  std::size_t max_burst_ = 0;
  std::uint64_t threaded_bursts_ = 0;
  std::uint64_t fleet_bursts_ = 0;

  /// Fleet mode: the span(s) deferred this tick (we own the packets
  /// until fleet_complete forwards the survivors) and their decisions.
  std::vector<sim::PacketPtr> held_;
  std::vector<Decision> held_decisions_;
};

}  // namespace mafic::core
