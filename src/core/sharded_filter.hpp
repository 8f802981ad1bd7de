#pragma once

/// \file sharded_filter.hpp
/// N MAFIC engines partitioned by flow-key hash — the multi-core ATR.
///
/// Shard-partition invariant: flow key `k` lives on shard
/// `shard_of(k) = top log2(N) bits of k`, and ONLY that shard ever touches
/// `k`'s table entry or probation timers. Each shard is a complete
/// EngineRuntime (flat store + arena, timer wheel, clock, probe counter)
/// with zero shared mutable state, so a driver may run one thread per
/// shard with no locks: equivalence with a single engine is structural,
/// not synchronized (test_core_sharded_filter pins it; the TSan CI job
/// watches the threaded bench driver). The Pd coin is a pure function of
/// (coin_seed, flow key, packet uid), so a single engine fed shard i's
/// substream reproduces shard i's decisions bit-for-bit.
///
/// The ShardedFilter itself spawns no threads: it is the passive state +
/// routing layer. Drivers (bench_flow_store_scale's multi-threaded
/// harness, or a DPDK-style run-to-completion loop) own the threads and
/// feed each shard its pre-partitioned bursts via engine(i).inspect_batch.
///
/// Two runtimes:
///  * standalone (default constructor): every shard is a self-contained
///    EngineRuntime — manual clock, private wheel, counting probe sink —
///    and the owner drives time with advance_until().
///  * external seams (SeamProvider constructor): the embedding runtime
///    supplies each shard's Clock/TimerService/ProbeSink — how the
///    discrete-event adapter (ShardedMaficFilter) mounts the shards on
///    the simulator's clock, shared wheel and a real Prober. In this mode
///    the environment drives time; advance_until() must not be called.

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/standalone_runtime.hpp"

namespace mafic::core {

class ShardedFilter {
 public:
  /// One shard's environment bindings (non-owning; must outlive the
  /// filter). See engine_seams.hpp for the seam contracts.
  struct ShardSeams {
    Clock* clock = nullptr;
    TimerService* timers = nullptr;
    ProbeSink* probes = nullptr;
  };
  /// Supplies the seams for shard `i`; invoked once per shard during
  /// construction, in shard order.
  using SeamProvider = std::function<ShardSeams(std::size_t shard)>;

  /// The partition is a bit slice, so the effective shard count is
  /// `requested` rounded up to a power of two (3 -> 4, 0 -> 1); see
  /// shard_count() for what was actually built.
  static std::size_t usable_shard_count(std::size_t requested) noexcept {
    return std::bit_ceil(requested < 1 ? std::size_t{1} : requested);
  }

  /// `shard_count` rounds up to a power of two (the partition is a bit
  /// slice). Per-shard capacities come from `cfg` verbatim: N shards
  /// hold N times the flows of one engine, mirroring per-core table
  /// memory.
  ShardedFilter(std::size_t shard_count, const MaficConfig& cfg,
                const AddressPolicy* policy);

  /// External-seams mode: engines bind to the provided environment
  /// instead of private EngineRuntimes. The unnamed seed is ignored; it
  /// is kept for perfbench, which still passes one — delete it at the
  /// next benchmark change.
  ShardedFilter(std::size_t shard_count, const MaficConfig& cfg,
                const AddressPolicy* policy, std::uint64_t /*unused*/,
                const SeamProvider& seams);

  std::size_t shard_count() const noexcept { return engines_.size(); }

  /// Home shard of a flow key: the top log2(N) bits. hash_label output is
  /// well mixed, and the flat store indexes with an independent Fibonacci
  /// multiply, so the slice costs no lookup clustering.
  std::size_t shard_of(std::uint64_t key) const noexcept {
    return shard_bits_ == 0 ? 0 : static_cast<std::size_t>(key >> shift_);
  }
  std::size_t shard_for(const sim::Packet& p) const noexcept {
    return shard_of(sim::hash_label(p.label));
  }

  /// Standalone mode only: shard i's self-contained runtime (external-
  /// seams filters have no runtimes; use engine(i) there).
  EngineRuntime& shard(std::size_t i) noexcept {
    assert(!runtimes_.empty() && "shard() is standalone-mode only");
    return *runtimes_[i];
  }
  const EngineRuntime& shard(std::size_t i) const noexcept {
    assert(!runtimes_.empty() && "shard() is standalone-mode only");
    return *runtimes_[i];
  }
  FilterEngine& engine(std::size_t i) noexcept { return *engines_[i]; }
  const FilterEngine& engine(std::size_t i) const noexcept {
    return *engines_[i];
  }

  // --- control plane (single-threaded, between datapath bursts) --------
  void activate(const VictimSet& victims);
  /// Weighted per-victim SFT quotas: forwarded to EVERY shard engine so
  /// all shards agree on class reservations (the cross-shard equivalence
  /// depends on identical class tables). Consumed by the next activate().
  void set_victim_weights(
      const std::vector<std::pair<util::Addr, double>>& weights);
  void refresh();
  void deactivate();
  bool active() const noexcept;

  /// Routes one packet to its home shard (convenience / equivalence
  /// tests; the fast path is per-shard inspect_batch on partitioned
  /// bursts).
  EngineVerdict inspect(const sim::Packet& p);

  /// The shared pre-hash pass over one burst span: gate (wants), label
  /// hash and home-shard id per packet, computed exactly once. Both the
  /// serial in-order batch walk (inspect_batch) and the speculative
  /// threaded sub-span builder (ShardedMaficFilter) consume this one
  /// routine, so the two paths cannot disagree on a packet's home shard.
  /// Cold packets (hot[i] == 0) have undefined key/shard entries.
  struct SpanPartition {
    std::vector<std::uint8_t> hot;      ///< victim-bound and inspectable
    std::vector<std::uint64_t> keys;    ///< hash_label per hot packet
    std::vector<std::uint32_t> shard;   ///< home shard per hot packet
  };
  void partition_span(const sim::Packet* const* pkts, std::size_t n,
                      SpanPartition& out) const;

  /// Range slice of the same pass, for cooperative worker-side
  /// partitioning: fills out.hot/keys/shard for [begin, end) only. The
  /// caller sizes the three arrays to the full span first; concurrent
  /// workers then partition disjoint chunks race-free (each index is
  /// written by exactly the chunk that covers it). Identical per-packet
  /// routine to partition_span, so chunked and whole-span partitions
  /// cannot disagree.
  void partition_span_range(const sim::Packet* const* pkts,
                            std::size_t begin, std::size_t end,
                            SpanPartition& out) const;

  /// Batch-inspects an indirect span (what a simulator burst delivers)
  /// in ARRIVAL order: runs partition_span, prefetches each hot key's
  /// home slot in its home shard's store a window ahead, then classifies
  /// sequentially, dispatching every packet to its home engine. Keeps
  /// the memory-level parallelism of FilterEngine::inspect_batch while
  /// preserving cross-shard arrival order — admissions schedule their
  /// probe/decision timers in span order, so a shared timer service
  /// fires them (and emits probes) exactly as a single engine would.
  /// Single-threaded by design; the threaded path (speculative sub-span
  /// fan-out with a deterministic journal merge) lives in the sim
  /// adapter, ShardedMaficFilter.
  void inspect_batch(const sim::Packet* const* pkts, std::size_t n,
                     EngineVerdict* out);

  /// Advances every shard's clock, firing due probation timers.
  /// Standalone mode only (external seams are driven by the environment).
  void advance_until(double t);

  /// Sums engine stats across shards.
  FilterEngine::Stats aggregate_stats() const;
  /// Sums flow-table stats across shards. Per-shard quota accounting is
  /// strictly shard-local (each shard registers the same victim classes
  /// over its own ring set), so the sums are deterministic for a fixed
  /// per-shard operation sequence — the property the scalar-vs-sharded
  /// sim equivalence gate relies on with quotas enabled.
  FlowTables::Stats aggregate_tables_stats() const;
  /// Per-victim decision/eviction tally for `victim`, summed over shards.
  FilterEngine::VictimStats victim_stats_for(util::Addr victim) const;
  /// Sums resident flows (all tables) across shards.
  std::size_t resident() const;

 private:
  unsigned shard_bits_ = 0;
  unsigned shift_ = 64;
  /// Standalone mode: one self-contained runtime per shard (else empty).
  std::vector<std::unique_ptr<EngineRuntime>> runtimes_;
  /// External-seams mode: engines owned directly (else empty).
  std::vector<std::unique_ptr<FilterEngine>> owned_engines_;
  /// Both modes: shard i's engine (the common routing/datapath surface).
  std::vector<FilterEngine*> engines_;
  /// inspect_batch scratch (reused; steady state allocates nothing).
  SpanPartition part_;
  /// Per-shard batch-start clock samples (one now() per shard per batch).
  std::vector<double> nows_;
};

}  // namespace mafic::core
